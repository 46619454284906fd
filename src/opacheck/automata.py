"""Finite automata under partial observation and the search machinery under them.

The alphabet of an automaton is partitioned into observable and unobservable
events; the intruder sees a string only through the projection that erases the
unobservable ones.  Every search over projected behaviour (the observer's
estimates here, projected inclusion and projected intersection in
:mod:`opacheck.language`) runs on one bitmask estimate kernel built from an
integer graph, the automaton's own or its quotient by a bisimulation; none
of them materializes a projected, determinized or product automaton.
Inclusion, intersection and witness realization share one
shortest-then-least search, which keeps one bitmask of left states per
right node: an estimate, a state of the second automaton or an observation
position.

All values are immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from collections import abc
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional, Sequence

from .errors import ObserverBlowup, PreconditionViolated

if TYPE_CHECKING:
    from .structure import StructureReport

DEFAULT_OBSERVER_CAP = 2**20
"""Default bound on the nonempty estimates one subset search may intern
before it raises :class:`ObserverBlowup`.  The README's cap paragraph says
which searches it bounds and what the others keep instead."""

Observation = tuple[str, ...]
Transition = tuple[str, str, str]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionViolated(message)


def _is_int(value) -> bool:
    """Whether ``value`` is an int; a bool (what JSON true parses to) is not."""
    return type(value) is int


def _shown(item) -> str:
    """``repr(item)``, a set's members sorted: the text does not depend on the hash seed."""
    if isinstance(item, (set, frozenset)) and item:
        return "{" + ", ".join(sorted(map(repr, item))) + "}"
    return repr(item)


# The kinds of the input records' fields.  A kind returns the value it reads,
# normalized, or raises a ValueError that says what the value must be and
# shows the least offender by _shown; _checked puts the field's name first.


def _checked(field: str, kind: Callable, value, error: type = ValueError):
    try:
        return kind(value)
    except ValueError as exc:
        raise error(f"{field} {exc}") from None


def _refuse(what: str, bad: list):
    raise ValueError(f"must {what}, not {min(map(_shown, bad))}")


def _scalar(what: str, test: Callable) -> Callable:
    return lambda value: value if test(value) else _refuse(f"be {what}", [value])


_TEXT = _scalar("a non-empty string", lambda v: isinstance(v, str) and v != "")
_STRING = _scalar("a string", lambda v: isinstance(v, str))
_FLAG = _scalar("a bool", lambda v: isinstance(v, bool))
_INT = _scalar("an int", _is_int)
_CAP = _scalar("a positive int", lambda v: _is_int(v) and v > 0)
_AUTOMATON = _scalar("an Automaton", lambda v: isinstance(v, Automaton))


def _items(value, what: str):
    """``value`` if it is a collection of ``what``: an iterable but a string,
    bytes or a mapping, which only iterate like one.  An iterator is read once."""
    if not isinstance(value, abc.Iterable) or isinstance(
            value, (str, bytes, bytearray, abc.Mapping)):
        _refuse(f"be a collection of {what}", [value])
    return tuple(value) if iter(value) is value else value


def _many(what: str, ok: Callable, make: Callable) -> Callable:
    """The kind of a collection of ``what``, returned as ``make(items)``.
    ``ok`` tells in bulk passes whether a collection holds only such items,
    and, given one item at a time, finds the offenders."""
    def read(value):
        items = _items(value, what)
        if ok(items):
            return make(items)
        _refuse(f"hold {what}", [x for x in items if not ok((x,))])
    return read


def _all(*classes: type) -> Callable:
    return lambda items: set(map(type, items)) <= {*classes} or all(
        map(isinstance, items, repeat(classes)))


_NAMES, _NAME_TUPLE = _many("names", _all(str), frozenset), _many("names", _all(str), tuple)
_CLAUSES = _many("collections of int literals", lambda clauses: all(
    isinstance(c, (list, tuple, set, frozenset)) and all(map(_is_int, c)) for c in clauses),
    lambda clauses: tuple(map(frozenset, clauses)))


def _rows(width: int, what: str, kind: type) -> Callable:
    """The kind of a collection of lists or tuples of ``width`` values of type
    exactly ``kind``, returned as a frozenset of tuples.  The values' types
    are checked before the set merges True with 1."""
    def ok(rows) -> bool:
        return _all(list, tuple)(rows) and set(map(len, rows)) <= {width} and set(
            map(type, chain.from_iterable(rows))) <= {kind}
    def make(rows) -> frozenset:
        try:  # a set of tuples is copied whole, into a table no larger than it needs
            return frozenset(rows)
        except TypeError:  # a list is unhashable
            return frozenset(map(tuple, rows))
    return _many(what, ok, make)


class _Record:
    """An immutable value whose fields are its class's annotated names, in
    order; a class attribute of the same name is the field's default.

    Construction takes the fields by position or keyword, reads each one that
    ``_kinds`` names by its kind (the one check of field kinds: a value of
    another kind raises ``_error``, naming the field) and then calls
    ``__post_init__``, which checks how the fields relate.  Equality and
    hashing read the fields named by ``_compared`` (all of them unless the
    class says otherwise), and the ``repr`` lists every field.  Assignment
    and deletion raise :class:`AttributeError`.  The instance ``__dict__``
    holds the fields and any ``cached_property`` values.  This is what a
    frozen dataclass gives, without the import of :mod:`dataclasses` and the
    per-class code generation that would slow every command line's start-up.
    Every value type of the package is one, the generators' inputs and
    results included, except :class:`~opacheck.structure.StructureReport`.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _kinds: dict[str, Callable] = {}
    _error: type = ValueError

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        names, values = self._fields, self.__dict__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments"
                            f" but {len(args)} were given")
        values.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {name!r}")
        for name, kind in self._kinds.items():
            values[name] = _checked(name, kind, values[name], self._error)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Event(_Record):
    name: str
    observable: bool = True
    _kinds = {"name": _TEXT, "observable": _FLAG}


class Automaton(_Record):
    """A nondeterministic finite automaton with a partitioned alphabet.

    ``states`` keeps declaration order; ``alphabet`` order is semantically
    meaningful because witness ties are broken by it.  Transitions must
    reference declared events by name.
    """

    states: tuple[str, ...]
    alphabet: tuple[Event, ...]
    transitions: frozenset[Transition]
    initial: frozenset[str]
    marked: frozenset[str] = frozenset()
    _kinds = {"states": _NAME_TUPLE, "alphabet": _many("Event values", _all(Event), tuple),
              "transitions": _rows(3, "(source, event, target) triples", str),
              "initial": _NAMES, "marked": _NAMES}

    def __post_init__(self) -> None:
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise ValueError("state names must be unique")
        events = {e.name for e in self.alphabet}
        if len(events) != len(self.alphabet):
            raise ValueError("event names must be unique within one alphabet")
        t = self.transitions
        undeclared = (self.initial | self.marked) - declared
        if undeclared or not (
            declared.issuperset(map(itemgetter(0), t))
            and declared.issuperset(map(itemgetter(2), t))
            and events.issuperset(map(itemgetter(1), t))
        ):
            # The least offender, so the message does not depend on the hash seed.
            for (p, e, q) in sorted(t):
                if p not in declared or q not in declared:
                    raise ValueError(f"transition ({p!r}, {e!r}, {q!r}) uses an undeclared state")
                if e not in events:
                    raise ValueError(f"transition ({p!r}, {e!r}, {q!r}) uses an undeclared event")
            raise ValueError(f"{min(undeclared)!r} is not a declared state")

    @cached_property
    def observable_events(self) -> tuple[str, ...]:
        """Observable event names in declaration order (the witness tie-break order)."""
        return tuple(e.name for e in self.alphabet if e.observable)

    @cached_property
    def _graph(self) -> _Graph:
        """The integer view the searches read, built on first use: automata
        that are only generated and written never pay for it."""
        return _Graph.of(self)

    @cached_property
    def _structure(self) -> dict[str, object]:
        """The five facts of :class:`StructureReport`, by field name: routing,
        the generators' preconditions and the command line's reports read them
        here, and :func:`classify` wraps them."""
        g = self._graph
        po = g.order is not None
        observable = len(self.observable_events)
        return {
            "deterministic": len(self.initial) == 1 and not g.branching,
            # A cycle is a self-loop or a cycle of the self-loop-free transitions.
            "acyclic": po and not g.loops,
            "partially_ordered": po,
            "observable_event_count": observable,
            "unobservable_event_count": len(self.alphabet) - observable,
        }

    @cached_property
    def _report(self) -> StructureReport:
        from .structure import StructureReport  # a dataclass: only classify loads it

        return StructureReport(**self._structure)

    def successors(self, state: str, event: str) -> tuple[str, ...]:
        """The targets of ``state`` under ``event``, sorted by name."""
        state, event = _checked("state", _STRING, state), _checked("event", _STRING, event)
        g = self._graph
        _require(state in g.index and event in g.event_index,
                 "successors: the state and event must be declared")
        targets = g.succ[g.event_index[event]][g.index[state]]
        return tuple(sorted(self.states[j] for j in targets))

    def with_initial(self, initial: Iterable[str]) -> "Automaton":
        return Automaton(self.states, self.alphabet, self.transitions, initial, self.marked)

    def with_marked(self, marked: Iterable[str]) -> "Automaton":
        return Automaton(self.states, self.alphabet, self.transitions, self.initial, marked)


class Witness(_Record):
    """A violating (or, for weak opacity, confirming) observation plus a replayable run.

    ``secret_run`` is a full event string over the automaton's alphabet whose
    projection equals ``observation``.
    """

    observation: Observation
    secret_run: tuple[str, ...]


class Verdict(_Record):
    """``algorithm`` names the code that decided: ``observer``, ``inclusion``,
    ``unary-po`` or ``product``.  It takes no part in equality."""

    holds: bool
    witness: Optional[Witness] = None
    algorithm: str = ""
    _compared = ("holds", "witness")


class _Graph:
    """Transitions on integers: the node space every search reads.

    ``index`` maps each state name to its node, and there are ``size``
    nodes.  Events are indexed in alphabet order by ``event_index``;
    ``succ[k][i]`` lists the targets of node ``i`` under event ``k``, and
    ``observable[k]`` tells whether event ``k`` is observable.  An
    automaton's own graph (:meth:`of`) has one node per state; a quotient
    (:func:`_quotient`) has one per class, and its ``index`` maps each state
    to its class.
    """

    def __init__(self, index: dict[str, int], size: int, event_index: dict[str, int],
                 observable: tuple[bool, ...], succ: Sequence[Sequence[Sequence[int]]]):
        self.index, self.size, self.event_index = index, size, event_index
        self.observable, self.succ = observable, succ

    @classmethod
    def of(cls, a: Automaton) -> _Graph:
        """The graph of ``a``, the one place that decides how states and
        events are indexed: states in declaration order, events in alphabet
        order, built in one pass over the transitions.  The same pass
        records ``loops``, which maps each state with a self-loop to whether
        one of them is on an observable event, and ``branching``: whether
        some state has two targets under one event."""
        index = {s: i for i, s in enumerate(a.states)}
        event_index = {e.name: k for k, e in enumerate(a.alphabet)}
        observable = tuple(e.observable for e in a.alphabet)
        succ: list[list[Sequence[int]]] = [[()] * len(a.states) for _ in a.alphabet]
        loops, branching = {}, False
        for (p, e, q) in a.transitions:
            row, i, j = succ[event_index[e]], index[p], index[q]
            if row[i]:
                row[i].append(j)
                branching = True
            else:
                row[i] = [j]
            if i == j:
                loops[i] = loops.get(i, False) or observable[event_index[e]]
        g = cls(index, len(a.states), event_index, observable, succ)
        g.loops, g.branching = loops, branching
        return g

    @cached_property
    def order(self) -> Optional[list[int]]:
        """A topological order of the self-loop-free transitions, or None when
        they have a cycle (the graph is not partially ordered)."""
        return topological_order(self.size, self.succ)

    def mask(self, states: Iterable[str]) -> int:
        """The bitmask of the nodes of ``states``."""
        out = 0
        for s in states:
            out |= 1 << self.index[s]
        return out


def topological_order(n: int, rows: Sequence[Sequence[Sequence[int]]]) -> Optional[list[int]]:
    """Kahn's algorithm over the nodes ``0 .. n-1``, with edges given as in
    :func:`_reach`; returns None when they have a cycle.  Self-loops are
    ignored and repeated edges are allowed."""
    indegree = [0] * n
    for row in rows:
        for i, targets in enumerate(row):
            for j in targets:
                indegree[j] += j != i
    order = [u for u in range(n) if indegree[u] == 0]
    for u in order:  # the loop also visits the nodes appended while it runs
        for row in rows:
            for v in row[u]:
                indegree[v] -= 1  # a self-loop takes u below 0, never back to it
                if indegree[v] == 0:
                    order.append(v)
    return order if len(order) == n else None


def classify(a: Automaton) -> StructureReport:
    """Structural report: determinism, acyclicity, partial order, event counts.

    Self-loops count as cycles for acyclicity but are permitted in partially
    ordered automata (every nontrivial strongly connected component breaks the
    partial order).  The facts are computed once per automaton and cached on
    it, so routing, fast-path preconditions and output share them; so is the
    report that holds them.
    """
    return _checked("a", _AUTOMATON, a)._report


def _reach(seeds: Iterable[int], rows: Sequence[Sequence[Sequence[int]]]) -> set[int]:
    """The nodes reachable from ``seeds`` along any of ``rows``, where
    ``row[i]`` lists the targets of node ``i``."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        i = todo.pop()
        for row in rows:
            for j in row[i]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return seen


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, highest first."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    return out


# Id of the empty estimate.  It is never interned, so it does not count against
# the cap, and every event maps it to itself.
_EMPTY = -1


class _Work:
    """What one search did, filled in as it returns or raises: ``estimates``
    nonempty estimates interned, ``groups`` ids or groups expanded, ``depth``
    the breadth-first layer of the last id or group reached, and ``pairs``
    the set bits of the pair search's left-state masks.  It keeps no table."""

    __slots__ = ("estimates", "groups", "depth", "pairs")

    def __init__(self) -> None:
        self.estimates = self.groups = self.depth = self.pairs = 0


def _closures(g: _Graph) -> list[int]:
    """The closure of each node of ``g`` under its unobservable events, as a
    bitmask.  Nodes are walked successors first, in reverse topological
    order of the unobservable transitions when they have no cycle, so a walk
    stops at the finished closures it meets."""
    rows = [row for k, row in enumerate(g.succ) if not g.observable[k]]
    adjacency: dict[int, list[int]] = {}  # unobservable successors, where there are any
    for row in rows:
        for i, targets in enumerate(row):
            if targets:
                adjacency.setdefault(i, []).extend(targets)
    closure = [1 << i for i in range(g.size)]
    # A finished closure is complete, so a search that meets its node
    # takes it whole instead of walking on.
    done = [i not in adjacency for i in range(g.size)]
    order = topological_order(g.size, rows) if adjacency else None
    roots = adjacency if order is None else [i for i in reversed(order) if not done[i]]
    for root in roots:
        mask, seen, todo = closure[root], {root}, [root]
        while todo:
            for q in adjacency.get(todo.pop(), ()):
                if done[q]:
                    mask |= closure[q]
                elif q not in seen:
                    seen.add(q)
                    mask |= closure[q]
                    todo.append(q)
        closure[root] = mask
        done[root] = True
    return closure


def _quotient(g: _Graph, apart: Sequence[Collection[str]]) -> _Graph:
    """``g`` over the classes of a strong bisimulation whose classes agree
    on membership in each set of ``apart``; ``g`` itself when ``apart``
    is empty, when ``g`` is not partially ordered, or when every class is a
    single state.

    Every event is its own label, unobservable ones included.  One pass in
    reverse topological order gives each state a signature: its memberships
    and, per event, the classes of its targets, all of which come later in
    the order, with a self-loop as a marker for the state's own class.
    States with one signature share a class.  Two members of a class then
    have targets in the same classes under every event, so the partition is
    stable, and one member's targets, by class, stand for every member's.
    It is not the coarsest stable partition: with ``u -a-> w`` and an ``a``
    self-loop on ``w``, the two are bisimilar, but ``u`` names ``w``'s class
    where ``w`` has the marker, so they get two classes.
    """
    if not apart or g.order is None:
        return g
    flags = [0] * g.size
    for bit, states in enumerate(apart):
        for s in states:
            flags[g.index[s]] |= 1 << bit
    classes = [0] * g.size
    ids: dict[tuple, int] = {}
    for u in reversed(g.order):
        signature = [flags[u]]
        for row in g.succ:
            targets = row[u]
            if len(targets) == 1:
                j = targets[0]
                signature.append(-1 if j == u else classes[j])
            elif targets:
                found = frozenset([-1 if j == u else classes[j] for j in targets])
                signature.append(found if len(found) > 1 else next(iter(found)))
            else:
                signature.append(None)
        classes[u] = ids.setdefault(tuple(signature), len(ids))
    if len(ids) == g.size:
        return g
    member = [0] * len(ids)
    for i, c in enumerate(classes):
        member[c] = i
    succ = [[[classes[j] for j in row[i]] for i in member] for row in g.succ]
    index = {s: classes[i] for s, i in g.index.items()}
    return _Graph(index, len(ids), g.event_index, g.observable, succ)


class _EstimateKernel:
    """Subset construction over one integer graph, with estimates as int
    bitmasks over its nodes.

    Built once per graph and search.  Each node's unobservable closure is
    precomputed, and so is, per observable event, a row whose entry ``i``
    is the closure of the event's successors of node ``i``; the post-image
    of an estimate is the union of its members' rows.  The members of the
    last mask whose post-image was taken are kept, since searches take the
    post-images of one mask under every event in turn; :meth:`step` keeps
    its own, so a kernel that serves both sides of a pair search does not
    evict the other side's.  On a quotient (:func:`_quotient`) an estimate
    is a set of classes: a class set commutes with every post-image and
    decides whether an estimate meets each set the quotient keeps apart,
    and one class estimate stands for every estimate with the same classes.

    Estimates reached by a search are interned on demand as small int ids, in
    discovery order; a mask interned again keeps its id.  At most ``cap``
    nonempty estimates are interned; one more raises :class:`ObserverBlowup`.
    Masks, indices and ids handed to the methods are trusted: validation
    belongs to the public entry points.
    """

    def __init__(self, g: _Graph, cap: int = DEFAULT_OBSERVER_CAP):
        self.events = tuple(e for e, seen in zip(g.event_index, g.observable) if seen)
        self.event_index = {e: k for k, e in enumerate(self.events)}
        self.closure = _closures(g)
        self.rows = []
        for k, row in enumerate(g.succ):
            if g.observable[k]:
                closed = []
                for targets in row:
                    mask = 0
                    for j in targets:
                        mask |= self.closure[j]
                    closed.append(mask)
                self.rows.append(closed)
        self.cap = cap
        self.masks: list[int] = []
        self._ids: dict[int, int] = {}
        self._members_of, self._members = 0, []
        self._stepped, self._step_members = _EMPTY, []

    def close(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.closure[i]
        return out

    def post(self, mask: int, k: int) -> int:
        if mask != self._members_of:
            self._members_of, self._members = mask, _bits(mask)
        row, out = self.rows[k], 0
        for i in self._members:
            out |= row[i]
        return out

    def intern(self, mask: int) -> int:
        if not mask:
            return _EMPTY
        i = self._ids.get(mask)
        if i is None:
            i = len(self.masks)
            if i >= self.cap:
                raise ObserverBlowup(self.cap)
            self._ids[mask] = i
            self.masks.append(mask)
        return i

    def step(self, i: int, k: int) -> int:
        """Id of the estimate that event index ``k`` leads to from estimate ``i``."""
        if i == _EMPTY:
            return i
        if i != self._stepped:
            self._stepped, self._step_members = i, _bits(self.masks[i])
        row, out = self.rows[k], 0
        for j in self._step_members:
            out |= row[j]
        return self.intern(out)

    def search(self, start: int, is_goal, work: _Work) -> Optional[Observation]:
        """Breadth-first walk over the nonempty estimates reachable from the
        closed mask ``start``, on a fresh kernel.

        Events are tried in declaration order and ``is_goal`` is tested on
        each estimate's mask when it is discovered, so the first hit is reached
        by the shortest, then lexicographically least, observation, which is
        returned.  None means no reachable estimate is a goal; every one of
        them has then been interned.  Ids are interned in discovery order, so
        ``masks`` is the walk's queue, and each layer's ids follow the last.
        """
        # A plain id BFS: on _lex_least_label, with ids as groups, cso-observer ran 5-39 % slower.
        start = self.intern(start)
        if start == _EMPTY:
            return None
        width = len(self.events)
        parent = [-1]  # id -> slot (parent id * width + event index) it was found by
        i, depth, end = -1, 0, 1  # the id expanded, its layer, and the first id past that layer
        try:
            if is_goal(self.masks[start]):
                return ()
            for i, mask in enumerate(self.masks):  # also visits the ids interned while it runs
                if i == end:
                    depth, end = depth + 1, len(self.masks)
                for k in range(width):
                    j = self.intern(self.post(mask, k))
                    if j < len(parent):  # _EMPTY or found before: a new id is len(parent)
                        continue
                    parent.append(i * width + k)
                    if is_goal(self.masks[j]):
                        path: list[str] = []
                        while parent[j] >= 0:
                            j, k = divmod(parent[j], width)
                            path.append(self.events[k])
                        return tuple(reversed(path))
            return None
        finally:
            work.estimates, work.groups = len(self.masks), i + 1
            work.depth = depth + (len(self.masks) > end)


def _kernels(a1: Automaton, m1: Collection[str], a2: Automaton, m2: Collection[str],
             cap: int = DEFAULT_OBSERVER_CAP, cso: bool = False):
    """Every search's graphs and kernels, and the right index of each left
    event.  Only the CSO question (``cso``: ``a2 is a1``, marked by the
    secret set ``m1`` and the non-secret set ``m2``) runs on the quotient
    keeping the two sets apart, with one kernel serving both sides; over
    states, equal presentations of any other question hit the cap together."""
    if cso:
        g1 = g2 = _quotient(a1._graph, (m1, m2))
        left = right = _EstimateKernel(g1, cap)
    else:
        g1, g2 = a1._graph, a2._graph
        left, right = _EstimateKernel(g1, cap), _EstimateKernel(g2, cap)
    return g1, g2, left, right, [right.event_index[e] for e in left.events]


def _least_violation(a: Automaton, secret: Collection[str], nonsecret: Collection[str],
                     cap: int) -> Optional[Observation]:
    """The CSO observer's search, on the kernel that :func:`_kernels` builds
    for the CSO question: the least observation whose estimate meets
    ``secret`` and misses ``nonsecret``, or None.  Its graph, kernel and
    account are garbage once it returns, before any witness run is realized."""
    g, _, kernel, _, _ = _kernels(a, secret, a, nonsecret, cap, cso=True)
    secret, nonsecret = g.mask(secret), g.mask(nonsecret)
    return kernel.search(kernel.close(g.mask(a.initial)),
                         lambda x: x & secret and not x & nonsecret, _Work())


def realize_observation(
    a: Automaton, targets: Iterable[str], observation: Observation, *,
    initial: Optional[Iterable[str]] = None,
) -> tuple[str, ...]:
    """Shortest full event string projecting to ``observation`` that leads
    from a state of ``initial`` (by default ``a.initial``) into ``targets``.

    Ties among shortest strings are broken by alphabet declaration order.
    Raises ValueError when no such run of ``a`` exists.

    The search's right nodes are the numbers of observations read.
    """
    a, targets = _checked("a", _AUTOMATON, a), _checked("targets", _NAMES, targets)
    observation = _checked("observation", _NAME_TUPLE, observation)
    initial = a.initial if initial is None else _checked("initial", _NAMES, initial)
    _require(targets | initial <= set(a.states), "realize_observation: states must be declared")
    g = a._graph
    n = len(observation)
    # An undeclared event maps to -1 and matches no event.
    wanted = [g.event_index.get(e, -1) for e in observation]
    goal = g.mask(targets)

    def move(position: int, states: int, k: int):
        if g.observable[k]:
            if position == n or k != wanted[position]:
                return (), 0
            position += 1
        row, out = g.succ[k], 0
        for i in _bits(states):
            for j in row[i]:
                out |= 1 << j
        return (position,), out

    def is_goal(position: int, states: int) -> bool:
        return position == n and bool(states & goal)

    run = _lex_least_label([(0, g.mask(initial))], range(len(a.alphabet)), move, is_goal, _Work())
    if run is None:
        raise ValueError("observation is not realizable by any run into the target set")
    return tuple(a.alphabet[k].name for k in run)


def _lex_least_label(start: list[tuple[int, int]], events, move, is_goal,
                     work: _Work) -> Optional[tuple]:
    """Minimal-length, then lexicographically minimal, event string that leads
    from the group ``start`` to a goal node.

    A node pairs a right node ``y`` with a left state.  A group, ``start``
    included, is a list of (right node, mask of left states) pairs, and
    ``start`` names no right node twice.  ``move(y, mask, e)`` returns the
    right nodes that ``e`` leads to from ``y``'s left states ``mask``, and
    the mask of left states each of them gets.  ``is_goal(y, mask)`` tells whether left
    states first reached under ``y`` hold a goal.  The search alone keeps
    the nodes reached so far, as one left-state mask per right node, so no
    node is moved from twice.

    Both callbacks must distribute over unions of masks under one right
    node: ``move(y, m | m2, e)`` leads to the union of what ``m`` and ``m2``
    lead to, and ``is_goal(y, m | m2)`` holds when it holds for ``m`` or for
    ``m2``.  Inclusion and weak LBO step by the left kernel's post-image and
    realization ORs successor rows, and each goal test asks that the mask
    meet a set and a test on the right node hold.  So a group lists its
    pairs as they are found, and a right node reached twice in one
    extension, which only the product's several right nodes allow, gets two
    pairs with disjoint masks instead of one merged mask.

    The search is breadth-first, and a layer lists its groups in increasing
    label order, each extended by every event in order, where a group holds
    the nodes first reached by its label.  Every node on a shortest walk sits
    at its own shortest depth, so a group's label is the least shortest label
    of each of its nodes, the next layer is again sorted, and the first
    extension that reaches a goal carries the answer.  The search stops there.
    ``work`` gets the groups expanded, the layer of the last group reached and
    the bits of ``reached``, also when a callback raises.
    """
    reached = dict(start)  # right node -> left states paired with it so far
    parents: list[tuple[int, object]] = []  # group -> (parent group, event); -1 is the start
    layer = [(-1, start)]
    depth = groups = built = 0  # built: the layer that the extensions of ``layer`` reach
    try:
        if any(is_goal(y, mask) for y, mask in start):
            return ()
        while layer:
            built += 1
            next_layer = []
            for group, pairs in layer:
                groups += 1
                for e in events:
                    fresh_pairs = []
                    for y, mask in pairs:
                        ys, mask2 = move(y, mask, e)
                        for y2 in ys:
                            old = reached.get(y2, 0)
                            fresh = mask2 & ~old
                            if not fresh:
                                continue
                            if is_goal(y2, fresh):
                                depth, label = built, [e]
                                while group >= 0:
                                    group, e = parents[group]
                                    label.append(e)
                                return tuple(reversed(label))
                            reached[y2] = old | fresh
                            fresh_pairs.append((y2, fresh))
                    if fresh_pairs:
                        depth = built
                        parents.append((group, e))
                        next_layer.append((len(parents) - 1, fresh_pairs))
            layer = next_layer
        return None
    finally:
        work.groups, work.depth = groups, depth
        work.pairs = sum(mask.bit_count() for mask in reached.values())


def _unary_event(a: Automaton) -> Optional[str]:
    """``a``'s observable event if it is the only one and ``a`` is partially
    ordered, else None.  The count goes first, so other automata build no order."""
    events = a.observable_events
    if len(events) == 1 and a._structure["partially_ordered"]:
        return events[0]
    return None
