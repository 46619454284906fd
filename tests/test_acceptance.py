"""Acceptance suite.

Each criterion runs at its stated scale on seeded random inputs, prints one
PASS/FAIL line, and fails the build on any disagreement.  Witnesses collected
along the way are replayed in criterion 9 with membership queries only.
"""

import json
import time

import pytest

from opacheck import (
    CnfFormula,
    CsoInstance,
    IfsoInstance,
    IsoInstance,
    classify,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    gen_union_universality_cso,
    lbo_to_iso,
    po_determinize,
    verify_cso,
    verify_cso_observer,
    verify_iso,
    verify_lbo,
    verify_lbo_weak,
)
from opacheck.cli import main
from opacheck.jsonio import dumps, instance_from_dict, instance_to_dict
from opacheck.oracles import brute_sat, dag_reachable, enum_cso_acyclic, unobservable_closure

from helpers import (
    ALPHABET_1OBS_1UO,
    ALPHABET_2OBS_1UO,
    ALPHABET_BIN,
    make_rng,
    rand_automaton,
    rand_cnf,
    rand_cso,
    rand_dag,
    rand_dfa,
    rand_trim_lbo,
    replay,
    union_is_universal,
)

TWO_CLAUSE = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))


def report(number, ok, checks, total, elapsed, description):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({checks}/{total}, {elapsed:.2f}s): {description}")
    assert ok, f"criterion {number}: only {checks}/{total} checks agreed"


@pytest.fixture(scope="module")
def cnf_results():
    rng = make_rng("acceptance-01")
    started = time.perf_counter()
    records = []
    for _ in range(200):
        formula = rand_cnf(rng, max_variables=10, max_clauses=15, max_width=4)
        inst = gen_cnf_cso(formula)
        records.append((formula, inst, verify_cso(inst)))
    return records, time.perf_counter() - started


def test_criterion_01_cnf_gadget_matches_sat(cnf_results):
    records, elapsed = cnf_results
    agreed = sum(
        verdict.holds == (brute_sat(formula) is None)
        for formula, _, verdict in records
    )
    report(1, agreed == 200, agreed, 200, elapsed,
           "CNF gadget opacity equals brute-force unsatisfiability")


@pytest.fixture(scope="module")
def equivalence_results():
    rng = make_rng("acceptance-02")
    started = time.perf_counter()
    records = []
    for k in range(500):
        alphabet = ALPHABET_2OBS_1UO if k % 2 else ALPHABET_1OBS_1UO
        inst = rand_cso(rng, alphabet, max_states=7)
        records.append((inst, verify_cso_observer(inst), verify_cso(inst, "inclusion"),
                        verify_lbo(cso_to_lbo(inst))))
    return records, time.perf_counter() - started


def test_criterion_02_observer_inclusion_equivalence(equivalence_results):
    # CSO's inclusion runs the observer's search; the LBO image asks the same
    # inclusion of the pair search over states, so it is the second algorithm
    records, elapsed = equivalence_results
    agreed = sum(left.holds == right.holds == image.holds for _, left, right, image in records)
    report(2, agreed == 500, agreed, 500, elapsed,
           "observer and inclusion verdicts identical on random instances")


@pytest.fixture(scope="module")
def definitional_results():
    rng = make_rng("acceptance-03")
    started = time.perf_counter()
    records = []
    for _ in range(300):
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=8, structure="acyclic")
        records.append(
            (inst, enum_cso_acyclic(inst), verify_cso_observer(inst), verify_cso(inst, "inclusion"))
        )
    return records, time.perf_counter() - started


def test_criterion_03_definitional_oracle(definitional_results):
    records, elapsed = definitional_results
    agreed = sum(
        reference == left == right for _, reference, left, right in records
    )
    report(3, agreed == 300, agreed, 300, elapsed,
           "both algorithms match the definitional oracle, witnesses included")


@pytest.fixture(scope="module")
def dag_results():
    rng = make_rng("acceptance-04")
    started = time.perf_counter()
    records = []
    for _ in range(200):
        g = rand_dag(rng, max_vertices=15)
        weak_inst = gen_dag_weak_lbo(g)
        unary_inst = gen_dag_cso_unary(g)
        records.append(
            (g, weak_inst, verify_lbo_weak(weak_inst), unary_inst, verify_cso(unary_inst))
        )
    return records, time.perf_counter() - started


def test_criterion_04_dag_gadgets(dag_results):
    records, elapsed = dag_results
    agreed = 0
    for g, _, weak_verdict, _, unary_verdict in records:
        reachable = dag_reachable(g)
        agreed += weak_verdict.holds == reachable
        agreed += unary_verdict.holds == (not reachable)
    report(4, agreed == 400, agreed, 400, elapsed,
           "DAG gadget verdicts equal graph reachability")


@pytest.fixture(scope="module")
def determinization_results():
    rng = make_rng("acceptance-05")
    started = time.perf_counter()
    records = []
    for _ in range(200):
        inst = rand_cso(rng, ALPHABET_BIN, max_states=6, structure="po")
        image = po_determinize(inst.automaton, "0")
        image_inst = CsoInstance(image.automaton, inst.secret, inst.nonsecret)
        records.append((inst, verify_cso(inst), image_inst, verify_cso(image_inst)))
    return records, time.perf_counter() - started


def test_criterion_05_determinization_preserves_cso(determinization_results):
    records, elapsed = determinization_results
    agreed = 0
    for _, verdict, image_inst, image_verdict in records:
        structure = classify(image_inst.automaton)
        agreed += (
            verdict.holds == image_verdict.holds
            and structure.deterministic
            and structure.partially_ordered
        )
    report(5, agreed == 200, agreed, 200, elapsed,
           "determinization preserves the verdict and yields a partially ordered DFA")


@pytest.fixture(scope="module")
def union_results():
    rng = make_rng("acceptance-06")
    started = time.perf_counter()
    records = []
    for _ in range(100):
        family = [rand_dfa(rng, max_states=5) for _ in range(rng.randint(2, 4))]
        result = gen_union_universality_cso(family)
        records.append((family, result, verify_cso(result.instance)))
    return records, time.perf_counter() - started


def test_criterion_06_union_universality(union_results):
    records, elapsed = union_results
    agreed = 0
    for family, result, verdict in records:
        a = result.instance.automaton
        estimate_ok = unobservable_closure(a, a.initial) == set(result.component_initials)
        agreed += verdict.holds == union_is_universal(family) and estimate_ok
    report(6, agreed == 100, agreed, 100, elapsed,
           "chained union opacity equals universality; initial estimate is the initial closures")


@pytest.fixture(scope="module")
def notion_reduction_results():
    rng = make_rng("acceptance-07")
    started = time.perf_counter()
    lbo_records = []
    for _ in range(200):
        inst = rand_trim_lbo(rng, ALPHABET_2OBS_1UO, max_states=6)
        iso_image = lbo_to_iso(inst).instance
        lbo_records.append((inst, verify_lbo(inst), iso_image, verify_iso(iso_image)))
    cso_records = []
    for _ in range(200):
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=6)
        lbo_image = cso_to_lbo(inst)
        cso_records.append((inst, verify_cso(inst), lbo_image, verify_lbo(lbo_image)))
    return lbo_records, cso_records, time.perf_counter() - started


def test_criterion_07_notion_reductions(notion_reduction_results):
    lbo_records, cso_records, elapsed = notion_reduction_results
    agreed = sum(v1.holds == v2.holds for _, v1, _, v2 in lbo_records)
    agreed += sum(v1.holds == v2.holds for _, v1, _, v2 in cso_records)
    report(7, agreed == 400, agreed, 400, elapsed,
           "LBO-to-ISO and CSO-to-LBO transformations preserve verdicts")


@pytest.fixture(scope="module")
def fast_path_results():
    rng = make_rng("acceptance-08")
    started = time.perf_counter()
    acyclic = []
    for _ in range(300):
        inst = rand_cso(rng, ALPHABET_1OBS_1UO, max_states=7, structure="acyclic")
        acyclic.append((inst, verify_cso(inst, "unary-po"), verify_cso_observer(inst)))
    ordered = []
    for _ in range(300):
        inst = rand_cso(rng, ALPHABET_1OBS_1UO, max_states=7, structure="po")
        ordered.append((inst, verify_cso(inst, "unary-po"), verify_cso_observer(inst)))
    return acyclic, ordered, time.perf_counter() - started


def test_criterion_08_unary_fast_paths(fast_path_results):
    acyclic, ordered, elapsed = fast_path_results
    agreed = sum(fast == slow for _, fast, slow in acyclic)
    agreed += sum(fast == slow for _, fast, slow in ordered)
    report(8, agreed == 600, agreed, 600, elapsed,
           "unary fast paths equal the observer, witnesses included")


def test_criterion_09_witness_replay(
    cnf_results,
    equivalence_results,
    definitional_results,
    dag_results,
    determinization_results,
    union_results,
    notion_reduction_results,
    fast_path_results,
):
    started = time.perf_counter()
    witnessed = []
    for _, inst, verdict in cnf_results[0]:
        witnessed.append(("cso", inst, verdict))
    for inst, left, right, _ in equivalence_results[0]:
        witnessed.append(("cso", inst, left))
        witnessed.append(("cso", inst, right))
    for inst, reference, left, right in definitional_results[0]:
        witnessed.extend(
            [("cso", inst, reference), ("cso", inst, left), ("cso", inst, right)]
        )
    for _, weak_inst, weak_verdict, unary_inst, unary_verdict in dag_results[0]:
        witnessed.append(("lbo-weak", weak_inst, weak_verdict))
        witnessed.append(("cso", unary_inst, unary_verdict))
    for inst, verdict, image_inst, image_verdict in determinization_results[0]:
        witnessed.append(("cso", inst, verdict))
        witnessed.append(("cso", image_inst, image_verdict))
    for _, result, verdict in union_results[0]:
        witnessed.append(("cso", result.instance, verdict))
    lbo_records, cso_records, _ = notion_reduction_results
    for inst, v1, image, v2 in lbo_records:
        witnessed.append(("lbo", inst, v1))
        witnessed.append(("iso", image, v2))
    for inst, v1, image, v2 in cso_records:
        witnessed.append(("cso", inst, v1))
        witnessed.append(("lbo", image, v2))
    for inst, fast, slow in fast_path_results[0] + fast_path_results[1]:
        witnessed.append(("cso", inst, fast))
        witnessed.append(("cso", inst, slow))

    emitted = [(n, i, v) for (n, i, v) in witnessed if v.witness is not None]
    valid = sum(replay(notion, inst, verdict) for notion, inst, verdict in emitted)
    elapsed = time.perf_counter() - started
    ok = valid == len(emitted) and len(emitted) > 200
    report(9, ok, valid, len(emitted), elapsed,
           "every emitted witness passes membership-only replay")


def _random_serializable_instance(rng):
    kind = rng.choice(("cso", "iso", "ifso", "lbo"))
    if kind == "cso":
        return kind, rand_cso(rng, ALPHABET_2OBS_1UO, max_states=6)
    if kind == "iso":
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, initial_max=3)
        initials = sorted(a.initial)
        secret = frozenset(s for s in initials if rng.random() < 0.5)
        nonsecret = frozenset(s for s in initials if rng.random() < 0.5)
        return kind, IsoInstance(a, secret, nonsecret)
    if kind == "ifso":
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, initial_max=2)
        initials = sorted(a.initial)
        states = list(a.states)
        def pairs():
            return frozenset(
                (rng.choice(initials), rng.choice(states))
                for _ in range(rng.randint(0, 3))
            )
        return kind, IfsoInstance(a, pairs(), pairs())
    from opacheck import LboInstance

    alphabet = ALPHABET_2OBS_1UO
    return kind, LboInstance(
        rand_automaton(rng, alphabet, max_states=6),
        rand_automaton(rng, alphabet, max_states=6),
    )


def test_criterion_10_format_stability(tmp_path):
    rng = make_rng("acceptance-10")
    started = time.perf_counter()
    stable = 0
    for _ in range(100):
        notion, inst = _random_serializable_instance(rng)
        first = dumps(instance_to_dict(inst))
        reparsed = instance_from_dict(json.loads(first), notion)
        second = dumps(instance_to_dict(reparsed))
        stable += first == second and reparsed == inst

    transparent = gen_cnf_cso(TWO_CLAUSE)
    opaque = CsoInstance(transparent.automaton, frozenset(), transparent.nonsecret)
    p1 = tmp_path / "transparent.json"
    p1.write_text(dumps(instance_to_dict(transparent)), encoding="utf-8")
    p2 = tmp_path / "opaque.json"
    p2.write_text(dumps(instance_to_dict(opaque)), encoding="utf-8")
    exit_codes_ok = (
        main(["verify", "--notion", "cso", str(p1)]) == 1
        and main(["verify", "--notion", "cso", str(p2)]) == 0
    )
    elapsed = time.perf_counter() - started
    report(10, stable == 100 and exit_codes_ok, stable, 100, elapsed,
           "canonical serialization is byte-stable; CLI exit codes match verdicts")
