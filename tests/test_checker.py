import copy
import dataclasses
import hashlib
import importlib
import json
import marshal
import pickle
import sys
import time
import weakref
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3enriques import arith, checker, embeddings, enumeration, lattice
from k3enriques.checker import (
    build_case,
    decide_enriques,
    survey,
    verify_certificate,
)
from k3enriques.embeddings import extends_to, identity_map, negation_map
from k3enriques.intmat import Matrix, intmat
from k3enriques.lattice import (
    FIXTURES,
    IntegralLattice,
    discriminant_group,
    fixture_path,
    load_lattice,
)

from oracles import arr


def _check(cert, name):
    return next(c for c in cert.checks if c.name == name)


def test_build_case_2_1():
    cert = build_case(2, 1)
    assert cert.passed
    assert _check(cert, "complement_rank").witness["complement_rank"] == 8
    assert sorted(_check(cert, "n_divisors").witness["computed"]) == sorted(
        [4, 4, 2, 2, 2, 2, 2, 2]
    )
    assert _check(cert, "transcendental_disc").witness["computed"] == 16
    assert _check(cert, "neron_severi_disc").witness["value"] == -16
    assert _check(cert, "n_root_free").witness["enumeration_count"] == 0


def test_build_case_5_1():
    cert = build_case(5, 1)
    assert cert.passed
    assert sorted(_check(cert, "n_divisors").witness["computed"]) == [4, 4]
    assert _check(cert, "transcendental_disc").witness["computed"] == 4**5


def test_build_case_3_2():
    cert = build_case(3, 2)
    assert cert.passed
    assert sorted(_check(cert, "n_divisors").witness["computed"]) == [2, 2, 4, 4, 4, 8]
    assert _check(cert, "transcendental_disc").witness["computed"] == 512


def test_build_case_rejects_bad_args():
    # find_d, build_case and decide_enriques agree on the sigmas that have a case
    kinds = {
        0: None,
        1: "KummerSigma1",
        2: "ConstructedCase",
        5: "ConstructedCase",
        6: "SigmaBoundExceeded",
        11: None,
    }
    for sigma, kind in kinds.items():
        if kind == "ConstructedCase":
            arith.find_d(23, sigma)
            assert build_case(sigma, 1).passed
        else:
            with pytest.raises(ValueError, match="sigma must be in 2..5"):
                arith.find_d(23, sigma)
            with pytest.raises(ValueError, match="sigma must be in 2..5"):
                build_case(sigma, 1)
        if kind is None:
            with pytest.raises(ValueError, match="sigma must be in 1..10"):
                decide_enriques(1000003, sigma)
        else:
            assert decide_enriques(1000003, sigma).reason["kind"] == kind, sigma
    with pytest.raises(ValueError):
        build_case(2, 0)


def test_all_cases_pass():
    for sigma in (2, 3, 4, 5):
        for d in range(1, 6):
            assert build_case(sigma, d).passed, (sigma, d)


def test_even_sigma_certificates_log_residue_note():
    assert any("square" in n for n in build_case(2, 1).notes)
    assert any("square" in n for n in build_case(4, 3).notes)


def test_gamma2_in_k3(gamma2_report):
    r = gamma2_report
    assert r.passed
    assert r.glue_order == 2**10
    by_name = {c.name: c for c in r.checks}
    assert by_name["complement_rank"].witness["rank"] == 12
    assert by_name["complement_signature"].witness["signature"] == (2, 10)
    assert by_name["complement_divisors"].witness["divisors"] == (2,) * 10


def test_decide_examples():
    assert decide_enriques(19, 6).answer == "No"
    v = decide_enriques(11, 5)
    assert v.answer == "Yes" and v.d == 1
    assert decide_enriques(7, 2).answer == "Unknown"
    v = decide_enriques(13, 4)
    assert v.answer == "Yes" and v.d == 1
    assert decide_enriques(23, 2).answer == "Unknown"


def test_decide_sigma1_cited():
    v = decide_enriques(101, 1)
    assert v.answer == "Yes"
    assert v.reason["kind"] == "KummerSigma1"


def test_decide_rejects_bad_input():
    with pytest.raises(ValueError):
        decide_enriques(2, 3)
    with pytest.raises(ValueError):
        decide_enriques(15, 3)
    with pytest.raises(ValueError):
        decide_enriques(7, 11)


def test_verdict_invariants():
    for p in (3, 11, 19, 23, 29):
        for sigma in range(1, 11):
            v = decide_enriques(p, sigma)
            if v.answer == "No":
                assert sigma >= 6
            if v.answer == "Yes" and sigma >= 2:
                assert v.certificate is not None and v.certificate.passed
                assert 8 * v.d < p


def test_decide_tests_primality_once(monkeypatch):
    # 4d stays below the trial-division range, so factoring it tests no prime
    p, seen = 10**9 + 7, []
    tested = checker.is_odd_prime
    monkeypatch.setattr(arith, "is_odd_prime", lambda n: seen.append(n) or tested(n))
    monkeypatch.setattr(checker, "is_odd_prime", arith.is_odd_prime)
    for sigma in range(1, 11):
        build_case.cache_clear()
        seen.clear()
        verdict = decide_enriques(p, sigma)
        assert verdict.answer == ("Yes" if sigma <= 5 else "No")
        assert seen == [p], (sigma, seen)


def test_arth_crosscheck_reported():
    v = decide_enriques(13, 2)
    # p = 1 mod 4: the two even-sigma formulations disagree
    assert v.arth_crosscheck == {"parity_rule": True, "arth_rule": False}
    v = decide_enriques(19, 2)
    assert v.arth_crosscheck == {"parity_rule": True, "arth_rule": True}
    v = decide_enriques(19, 3)
    assert v.arth_crosscheck == {"parity_rule": True, "arth_rule": True}


def test_certificate_roundtrip():
    cert = build_case(3, 1)
    doc = json.loads(json.dumps(cert.to_doc()))
    ok, messages = verify_certificate(doc)
    assert ok, messages


def test_certificate_mutations_fail():
    doc = build_case(2, 1).to_doc()
    mutated = json.loads(json.dumps(doc))
    mutated["checks"][0]["witness"]["snf_divisors"][0] = 2
    ok, _ = verify_certificate(mutated)
    assert not ok

    mutated = json.loads(json.dumps(doc))
    mutated["complement_gram"][0][0] += 4
    ok, _ = verify_certificate(mutated)
    assert not ok

    mutated = json.loads(json.dumps(doc))
    del mutated["checks"]
    ok, _ = verify_certificate(mutated)
    assert not ok


def test_verify_refuses_foreign_ambient_quickly():
    doc = build_case(3, 276012271).to_doc()
    assert verify_certificate(doc) == (True, [])
    mutated = json.loads(json.dumps(doc))
    mutated["ambient_gram"][1][1] += 2
    t0 = time.perf_counter()
    ok, messages = verify_certificate(mutated)
    assert time.perf_counter() - t0 < 1.0
    assert not ok
    assert messages == ["ambient_gram does not match recomputation"]


def _set_basis_entry(doc, value):
    assert doc["embedding_basis"][0][0] == 1
    doc["embedding_basis"][0][0] = value


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _set_basis_entry(doc, 1.5), "embedding_basis does not match"),
        (lambda doc: _set_basis_entry(doc, True), "embedding_basis does not match"),
        (lambda doc: _set_basis_entry(doc, "1"), "embedding_basis does not match"),
        (lambda doc: doc.update(d=5.9), "d is not a JSON integer"),
        (lambda doc: doc.update(sigma="3"), "sigma is not a JSON integer"),
    ],
    ids=["basis-float", "basis-bool", "basis-string", "d-float", "sigma-string"],
)
def test_verify_refuses_non_integer_fields(mutate, message):
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    assert verify_certificate(doc) == (True, [])
    mutate(doc)
    ok, messages = verify_certificate(doc)
    assert not ok
    assert len(messages) == 1 and messages[0].startswith(message)


@pytest.mark.parametrize(
    "sigma, d, message",
    [(7, 1, "sigma must be in 2..5"), (1, 5, "sigma must be in 2..5"), (2, 0, "d must be positive")],
    ids=["sigma-7", "sigma-1", "d-0"],
)
def test_verify_refuses_out_of_range_sigma_and_d(sigma, d, message):
    # the same reason, from the same check, as build_case gives
    with pytest.raises(ValueError, match=message):
        build_case(sigma, d)
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    doc.update(sigma=sigma, d=d)
    assert verify_certificate(doc) == (False, [message])


def test_verify_refuses_forged_basis_quickly():
    # [e2 + K e1, e1] spans the same block of E8(2) for every K; the verifier
    # builds its own basis, so K does not choose its work
    doc = json.loads(json.dumps(build_case(5, 1).to_doc()))
    forged = [[0] * 10 for _ in range(2)]
    forged[0][2], forged[0][3], forged[1][2] = 2**40, 1, 1
    doc["embedding_basis"] = forged
    t0 = time.perf_counter()
    result = verify_certificate(doc)
    assert time.perf_counter() - t0 < 1.0
    assert result == (False, ["embedding_basis does not match recomputation"])


def test_verify_refuses_swapped_sigma_by_field():
    # the (4, 5) case is built, not the stored sigma-3 matrices
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    doc["sigma"] = 4
    assert verify_certificate(doc) == (
        False,
        [
            f"{k} does not match recomputation"
            for k in ("embedding_basis", "complement_basis", "complement_gram", "checks", "notes")
        ],
    )


def _nested(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


@pytest.mark.parametrize(
    "path, value, message",
    [
        # past the int-to-str digit limit: no JSON text holds it
        (("complement_gram", 0, 0), 10**5000, "complement_gram does not match recomputation"),
        (("d",), 10**4301, "recomputation failed: Exceeds the limit"),
        # deeper than the pickler recurses
        (("notes",), _nested(2 * sys.getrecursionlimit()), "notes does not match recomputation"),
    ],
    ids=["huge-entry", "huge-d", "deep-notes"],
)
def test_verify_refuses_without_raising(path, value, message):
    ok, messages = verify_certificate(_replaced(build_case(3, 5).to_doc(), path, value))
    assert not ok
    assert len(messages) == 1 and messages[0].startswith(message)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 10**12))
def test_compute_case_passes_with_snf_divisors(sigma, d):
    cert = checker._compute_case(sigma, d)
    assert cert.passed
    if sigma in (2, 3):
        n_gram = cert.complement_gram
    else:
        n_gram = _check(cert, "embedded_gram_diagonal").witness["gram"]
    # the divisors of the discriminant group, the route the case took before
    oracle = discriminant_group(IntegralLattice(n_gram)).divisors
    assert _check(cert, "n_divisors").witness["computed"] == tuple(oracle)


def _prime_at_most(n):
    return next(q for q in range(n, 1, -1) if q == 2 or arith.is_odd_prime(q))


# d = 2^a 3^b 5^c q below 2^4064, q a prime below 10^6: factoring 4d stays
# trial division, however long d is
_SMOOTH_D = st.builds(
    lambda a, b, c, q: 2**a * 3**b * 5**c * _prime_at_most(q),
    st.integers(0, 1350),
    st.integers(0, 850),
    st.integers(0, 580),
    st.integers(2, 10**6),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.one_of(_SMOOTH_D, st.integers(2, 10**12)))
def test_template_is_the_computed_case(sigma, d):
    computed = checker._compute_case(sigma, d).to_doc()
    assert checker._same(build_case(sigma, d).to_doc(), computed)
    # to_doc() serves the byte view, so the template's own fields are walked too
    assert checker._same(checker._doc(build_case(sigma, d)), computed)
    family = checker._family(sigma)
    assert family.document(d) == marshal.dumps(computed, 2)
    # the view moves the two prime-power lists and the 13 ints that change with d
    assert len(family.moving) == 15 and family.moving.count(None) == 2
    assert verify_certificate(computed) == (True, [])


@pytest.mark.parametrize("sigma", [2, 3, 4, 5])
def test_d_1_is_served_by_its_computed_case(sigma):
    # at d = 1 and sigma 2 and 3 the computed complement row (1, -d) comes
    # out negated against the template, and nothing else differs; build_case
    # serves the computed case there
    family = checker._family(sigma)
    computed = checker._compute_case(sigma, 1).to_doc()
    assert checker._same(build_case(sigma, 1).to_doc(), computed)
    assert checker._same(checker._doc(build_case(sigma, 1)), computed)
    template = family.cert(1, family.prime_powers(1)).to_doc()
    differ = {
        path: (value, other)
        for (path, value), (_, other) in zip(_leaves(template), _leaves(computed))
        if value != other
    }
    if sigma in (2, 3):
        r = next(r for r, row in enumerate(template["complement_basis"]) if row[0])
        assert differ == {("complement_basis", r, 0): (1, -1), ("complement_basis", r, 1): (-1, 1)}
    else:
        assert differ == {}


def test_warm_families_build_and_verify_without_kernels(monkeypatch):
    for sigma in (2, 3, 4, 5):
        checker._family(sigma)
    build_case.cache_clear()
    calls = _count_kernels(monkeypatch)
    counted = checker.count_norm
    monkeypatch.setattr(
        checker, "count_norm", lambda *a: calls.update(["count_norm"]) or counted(*a)
    )
    to_json, same, factor = checker._json, checker._same, checker._prime_powers
    monkeypatch.setattr(checker, "_json", lambda *a: calls.update(["_json"]) or to_json(*a))
    monkeypatch.setattr(checker, "_same", lambda *a: calls.update(["_same"]) or same(*a))
    monkeypatch.setattr(
        checker, "_prime_powers", lambda n: calls.update(["_prime_powers"]) or factor(n)
    )
    for sigma in (2, 3, 4, 5):  # each evaluation of a family's template
        family = checker._family(sigma)
        template = family.cert
        monkeypatch.setattr(
            family, "cert", lambda d, pp, t=template: calls.update(["cert"]) or t(d, pp)
        )
    docs = []
    for sigma, d in product((2, 3, 4, 5), (1, 10**12 + 39, 2**127 - 1, 2**4000 * 3)):
        # a warm build factors 4d once, for the certificate, and its
        # document is the family's byte view at d: no template evaluation,
        # no field walk, no second factoring; d = 1 is served by its
        # computed case
        docs.append(json.loads(json.dumps(build_case(sigma, d).to_doc())))
        assert calls == Counter({"_prime_powers": int(d > 1)}), (sigma, d, calls)
        calls.clear()
    # a warm verification compares bytes: it builds no document and
    # compares no field on its own; it factors 4d once for the view
    for doc in docs:
        assert verify_certificate(doc) == (True, [])
    assert calls == Counter({"_prime_powers": 12}), calls


def test_family_computes_only_its_samples(monkeypatch):
    computed, compute = [], checker._compute_case
    monkeypatch.setattr(
        checker, "_compute_case", lambda sigma, d: computed.append((sigma, d)) or compute(sigma, d)
    )
    checker._family.cache_clear()
    build_case.cache_clear()
    for sigma in (2, 3, 4, 5):
        doc = build_case(sigma, 999999937).to_doc()
        assert verify_certificate(doc) == (True, [])
    assert sorted(computed) == [(s, d) for s in (2, 3, 4, 5) for d in checker._SAMPLES]
    # only build_case's cache is keyed by d, and clearing it keeps the families
    caches = {name: f for name, f in vars(checker).items() if hasattr(f, "cache_clear")}
    assert set(caches) == {"_gamma2", "_lambda_k3", "_family", "build_case"}
    sizes = {name: f.cache_info().currsize for name, f in caches.items()}
    build_case.cache_clear()
    for sigma in (2, 3, 4, 5):
        assert verify_certificate(build_case(sigma, 10**9 + 7).to_doc()) == (True, [])
    sizes["build_case"] = 4
    assert {name: f.cache_info().currsize for name, f in caches.items()} == sizes
    assert len(computed) == 20


def _detached_e8(rows, norm=-2):
    # the ambient with its last E8(2) vector cut off from the others and of
    # the given norm: orthogonal to the case basis of sigma 2, so it lies in
    # N; of norm -2 it is a root, of norm -6 N has none, yet its norms leave 4Z
    rows = [list(r) for r in rows]
    for i in range(9):
        rows[i][9] = rows[9][i] = 0
    rows[9][9] = norm
    ambient = IntegralLattice(rows)
    return lambda: ambient


class _CorruptedView(checker._Family):
    # the byte view with the last byte of its first chunk changed; the
    # template, and every claim about it, still hold
    def __init__(self, sigma):
        super().__init__(sigma)
        self.chunks[0] = self.chunks[0][:-1] + bytes([self.chunks[0][-1] ^ 1])


def _rooted_e8(rows):
    # the ambient with its last E8(2) vector of norm -2 and its edges kept:
    # that makes N indefinite, so a sample's count_norm stops the family
    rows = [list(r) for r in rows]
    rows[9][9] = -2
    ambient = IntegralLattice(rows)
    return lambda: ambient


@pytest.mark.parametrize(
    "sigma, patch, claim, roots",
    [
        (
            5,
            lambda: checker._CASES.update(
                {5: dataclasses.replace(checker._CASES[5], n_divisors=(5,))}
            ),
            "N's divisors are (4d, *n_divisors) as a multiset",
            None,
        ),
        (
            3,
            lambda: checker._CASES.update(
                {3: dataclasses.replace(checker._CASES[3], e_columns=(2, 4, 6))}
            ),
            "E G E^T is the embedded Gram",
            None,
        ),
        (
            2,
            lambda: setattr(checker, "_gamma2", _detached_e8(checker._gamma2().gram.rows)),
            "N's norms lie in 4Z, so N has no root",
            2,
        ),
        (
            2,
            lambda: setattr(checker, "_gamma2", _detached_e8(checker._gamma2().gram.rows, -6)),
            "N's norms lie in 4Z, so N has no root",
            0,
        ),
        (
            2,
            lambda: setattr(checker, "_gamma2", _rooted_e8(checker._gamma2().gram.rows)),
            "short-vector enumeration requires a definite lattice",
            None,
        ),
        (
            4,
            lambda: setattr(checker, "_Family", _CorruptedView),
            "the byte view is the computed case at d = 2",
            None,
        ),
    ],
    ids=[
        "n_divisors-off-by-one",
        "e_columns-not-orthogonal",
        "ambient-with-a-root",
        "ambient-with-a-norm-6-vector",
        "ambient-with-an-attached-root",
        "byte-view-corrupted",
    ],
)
def test_family_proof_can_fail(monkeypatch, sigma, patch, claim, roots):
    # every vector of U(2) + E8(2) has norm in 4Z, so no _CASES entry gives N
    # a root; the ambient is patched for that claim instead
    doc = json.loads(json.dumps(build_case(sigma, 7).to_doc()))
    monkeypatch.setattr(checker, "_CASES", dict(checker._CASES))
    monkeypatch.setattr(checker, "_gamma2", checker._gamma2)
    monkeypatch.setattr(checker, "_Family", checker._Family)
    patch()
    checker._family.cache_clear()
    build_case.cache_clear()
    if roots is not None:
        # each sample's own checks fail: a root v is counted as the pair
        # +-v, N's diagonal leaves 4Z while its Gram stays even, N gains a
        # divisor, and the glue index squared, 2^17 or 3 * 2^17, is no square
        for d in checker._SAMPLES:
            checks = {c.name: c for c in checker._compute_case(sigma, d).checks}
            witness = {name: dict(check.witness) for name, check in checks.items()}
            assert witness["n_norms_in_4Z"] == {"gram_even": True, "diagonal_mod4_zero": False}
            assert witness["n_root_free"] == {"enumeration_count": roots, "mod4_shortcut": False}
            assert witness["glue_index_integral"]["index_squared"] in (2**17, 3 * 2**17)
            failing = ["n_norms_in_4Z", "n_root_free", "n_divisors", "glue_index_integral"]
            assert [name for name in checks if not checks[name].passed] == failing
    try:
        with pytest.raises(ValueError, match=f"the cases of sigma {sigma} are not proven: .*"):
            checker._family(sigma)
        with pytest.raises(ValueError) as raised:
            build_case(sigma, 7)
        assert claim in str(raised.value)
        ok, messages = verify_certificate(doc)
        assert not ok and len(messages) == 1 and claim in messages[0]
    finally:
        checker._family.cache_clear()
        build_case.cache_clear()


def test_sample_rank_check_fails_on_a_short_case_basis(monkeypatch):
    # sigma 3 without e3: C still has rank 10 - rank E, but N gains a rank
    # and M loses one, so one conjunct holds and the check fails
    short = dataclasses.replace(checker._CASES[3], e_columns=(2, 4))
    monkeypatch.setattr(checker, "_CASES", {**checker._CASES, 3: short})
    check = _check(checker._compute_case(3, 7), "complement_rank")
    assert check.witness == {"complement_rank": 7, "n_rank": 7, "n_rank_expected": 6}
    assert not check.passed


def _with_witness(name, **changes):
    # the template with one witness of the named check changed at every d
    def change(cert):
        checks = tuple(
            dataclasses.replace(c, witness={**c.witness, **changes}) if c.name == name else c
            for c in cert.checks
        )
        return dataclasses.replace(cert, checks=checks)

    return change


def _with_failing(name):
    def change(cert):
        checks = tuple(dataclasses.replace(c, passed=c.name != name) for c in cert.checks)
        return dataclasses.replace(cert, checks=checks)

    return change


def _with_mixed_complement(cert):
    # C replaced by U C, U unimodular: E G C^T = 0, C G C^T, the unit minor
    # and the span hold, but the row carrying d is added to another row, so
    # N is no longer <-4d> plus a constant block
    rows = [list(r) for r in cert.complement_basis]
    r = next(r for r, row in enumerate(rows) if row[0])
    rows[r - 1] = [a + b for a, b in zip(rows[r - 1], rows[r])]
    c = intmat(rows)
    gram = c @ checker._gamma2().gram @ c.T
    return dataclasses.replace(cert, complement_basis=c.rows, complement_gram=gram.rows)


@pytest.mark.parametrize(
    "change, claim",
    [
        (_with_failing("n_root_free"), "every check passes"),
        (_with_witness("embedding_primitive", snf_divisors=(1, 2)), "E and C have a constant unit"),
        (_with_mixed_complement, "N and M are <c d> plus a constant block"),
        (_with_witness("complement_rank", complement_rank=7), "N has rank 12 - 2 sigma"),
        (_with_witness("n_negative_definite", signature=(1, 7)), "N is negative definite"),
        (_with_witness("m_side_signature", signature=(2, 0)), "M has signature"),
        (_with_witness("n_root_free", enumeration_count=1), "N's norms lie in 4Z"),
        (_with_witness("n_divisors", computed=(2, 4)), "N's divisors are its block's"),
        (_with_witness("neron_severi_disc", value=0), "det M gives"),
        (_with_witness("glue_index_integral", index_squared=0), "the glue index"),
    ],
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_family_claim_fails_on_a_changed_template(change, claim):
    # each claim on its own: the true template of sigma 2 with one part changed
    family = checker._family(2)
    assert checker._disproved(2, family.cert) == []
    failed = checker._disproved(2, lambda d, pp: change(family.cert(d, pp)))
    assert len(failed) == 1 and failed[0].startswith(claim), failed


@pytest.mark.parametrize(
    "d, claim",
    [
        (4, "the template is the computed case at d = 4"),
        (1, "the computed case at d = 1 passes every check"),
    ],
)
def test_family_refuses_a_sample_off_the_template(monkeypatch, d, claim):
    # a computed case that the template does not give (d = 4), or one that
    # fails a check (d = 1), with every claim about the template holding
    compute = checker._compute_case
    if d == 1:
        change = lambda cert: dataclasses.replace(_with_failing("n_root_free")(cert), passed=False)
    else:
        change = _with_mixed_complement

    def doctored(sigma, at):
        return change(compute(sigma, at)) if at == d else compute(sigma, at)

    monkeypatch.setattr(checker, "_compute_case", doctored)
    checker._family.cache_clear()
    try:
        with pytest.raises(ValueError) as raised:
            checker._family(2)
        assert str(raised.value) == f"the cases of sigma 2 are not proven: {claim}"
    finally:
        checker._family.cache_clear()


def test_unit_minor_and_block_read_the_d_free_part():
    def pair(f):
        return [intmat(f(0)), intmat(f(1))]

    assert checker._unit_minor(pair(lambda d: [[1, d, 0], [0, 0, 1]]))
    assert not checker._unit_minor(pair(lambda d: [[1, d, 0], [0, 0, 2]]))
    # [[d]] is the unit [[1]] at d = 1 only
    assert not checker._unit_minor(pair(lambda d: [[d]]))
    c, block, sig, a = checker._block(pair(lambda d: [[-4, 0], [0, d]]))
    assert (c, block.gram.rows, sig, a) == (1, ((-4,),), (1, 1), -4)
    for f in (
        lambda d: [[d, 0], [0, d]],  # d in two entries
        lambda d: [[0, d], [d, 0]],  # off the diagonal
        lambda d: [[d, 1], [1, -4]],  # its row is not 0
        lambda d: [[d, 0], [0, 0]],  # a degenerate block
        lambda d: [[-2, 0], [0, -4]],  # no d at all
    ):
        assert checker._block(pair(f)) is None


def _leaves(node, path=()):
    # (path, value) of every JSON leaf below node
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(v, (*path, k))
    else:
        yield path, node


def _leaf_mutations(value):
    # one value per mutation that changes the leaf's JSON text
    if type(value) is bool:
        return [not value, int(value)]
    if type(value) is int:
        return [value + 1, float(value)]
    return [value + "x"]


def _replaced(doc, path, value):
    out = json.loads(json.dumps(doc))
    *keys, last = path
    node = out
    for k in keys:
        node = node[k]
    node[last] = value
    return out


def test_verify_refuses_every_leaf_mutation():
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    assert verify_certificate(doc) == (True, [])
    assert verify_certificate(json.loads(json.dumps(doc, sort_keys=True))) == (True, [])
    leaves = list(_leaves(doc))
    assert {path[0] for path, _ in leaves} == set(doc)
    for path, value in leaves:
        for new in _leaf_mutations(value):
            ok, messages = verify_certificate(_replaced(doc, path, new))
            assert not ok, (path, new)
            if path[0] not in ("sigma", "d"):
                assert len(messages) == 1 and messages[0].startswith(path[0]), (path, messages)
    checks = doc["checks"]
    for edited in (checks[::-1], checks[1:], [*checks, checks[2]]):
        assert verify_certificate({**doc, "checks": edited}) == (
            False,
            ["checks does not match recomputation"],
        )


def _retype(doc, path, value):
    # the stored value equals the new one under Python ==, only its JSON type differs
    *keys, last = path
    for k in keys:
        doc = doc[k]
    assert doc[last] == value and type(doc[last]) is not type(value)
    doc[last] = value


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _retype(doc, ["complement_gram", 5, 5], -4.0), "complement_gram does not"),
        (lambda doc: _retype(doc, ["complement_basis", 0, 4], True), "complement_basis does not"),
        (lambda doc: _retype(doc, ["ambient_gram", 0, 1], 2.0), "ambient_gram does not"),
        (
            lambda doc: _retype(doc, ["checks", 0, "witness", "snf_divisors", 0], 1.0),
            "checks does not match",
        ),
        (lambda doc: doc.update(passed="no"), "passed does not match"),
        (
            lambda doc: _retype(doc, ["checks", 3, "passed"], 1),
            "checks does not match",
        ),
        (lambda doc: doc.update(checks=5), "checks does not match"),
        (lambda doc: doc["checks"].append(dict(doc["checks"][0])), "checks does not match"),
    ],
    ids=[
        "gram-float",
        "basis-bool",
        "ambient-float",
        "witness-float",
        "passed-string",
        "check-passed-int",
        "checks-int",
        "check-twice",
    ],
)
def test_verify_compares_json_types(mutate, message):
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    mutate(doc)
    ok, messages = verify_certificate(doc)
    assert not ok
    assert len(messages) == 1 and messages[0].startswith(message)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(notes=["anything"]), "notes does not match recomputation"),
        (lambda doc: doc.pop("notes"), "missing fields: ['notes']"),
        (lambda doc: doc.update(extra=1), "unknown fields: ['extra']"),
    ],
    ids=["notes-replaced", "notes-deleted", "extra-field"],
)
def test_verify_covers_notes_and_unknown_fields(mutate, message):
    doc = json.loads(json.dumps(build_case(3, 5).to_doc()))
    assert verify_certificate(doc) == (True, [])
    mutate(doc)
    assert verify_certificate(doc) == (False, [message])


def test_verify_accepts_sorted_keys():
    # the stored checks then differ from the recomputed ones in key order only
    doc = json.loads(json.dumps(build_case(3, 5).to_doc(), sort_keys=True))
    assert list(doc["checks"][1]["witness"]) == ["expected_diagonal", "gram"]
    assert verify_certificate(doc) == (True, [])
    # marshal refuses a dict subclass, so its fields are compared one by one
    assert verify_certificate(OrderedDict(doc)) == (True, [])


@pytest.mark.parametrize("keys", [lambda ks: [], list, " ".join], ids=["empty", "list", "string"])
def test_verify_refuses_non_object(keys):
    # the list and the string hold every field name, so `in` finds them all
    doc = keys(build_case(3, 5).to_doc())
    assert verify_certificate(doc) == (False, ["certificate is not a JSON object"])


def _containers(node):
    # every list and dict object in a JSON tree
    if isinstance(node, (dict, list)):
        yield node
        for v in node.values() if isinstance(node, dict) else node:
            yield from _containers(v)


_PINNED = [(s, d) for s in range(2, 6) for d in range(1, 6)]


def test_to_doc_is_its_json_round_trip(monkeypatch):
    def no_tree_walk(a, b):
        raise AssertionError("_same left its fast path")

    monkeypatch.setattr(checker, "_same_tree", no_tree_walk)
    for sigma, d in _PINNED:
        doc = build_case(sigma, d).to_doc()
        loaded = json.loads(json.dumps(doc))
        assert doc == loaded and checker._same(doc, loaded)
        assert verify_certificate(loaded) == (True, [])


def _clear_documents(reports):
    for report in reports:
        for node in list(_containers(report.to_doc())):
            node.clear()


def _change_witnesses(certs):
    for check in (check for cert in certs for check in cert.checks):
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.witness = {}
        for key, value in check.witness.items():
            with pytest.raises(TypeError):
                check.witness[key] = 0
            if type(value) is tuple:
                with pytest.raises(AttributeError):
                    value.append(9)


def test_to_doc_shares_nothing_with_the_cached_certificate():
    # certificates come from the build_case cache, and a verdict holds its
    # reason and crosscheck dicts besides a cached certificate
    certs = [build_case(sigma, d) for sigma, d in _PINNED]
    verdicts = [decide_enriques(p, s) for p in (1000003, 1000033, 23) for s in range(1, 11)]
    for reports, change in [
        (certs, _clear_documents),
        (verdicts, _clear_documents),
        (certs, _change_witnesses),
    ]:
        texts = [json.dumps(r.to_doc()) for r in reports]
        change(reports)
        assert [json.dumps(r.to_doc()) for r in reports] == texts


def test_served_to_doc_is_the_certificates_own_document():
    # a case of the family loads its document from the byte view, which
    # must be, byte for byte, the walk of that certificate's own fields
    certs = [build_case(sigma, d) for sigma, d in _PINNED]
    certs += [build_case(sigma, 10**4296) for sigma in (2, 3, 4, 5)]
    for cert in certs:
        assert cert._view[0] is checker._family(cert.sigma)
        assert marshal.dumps(cert.to_doc(), 2) == marshal.dumps(checker._doc(cert), 2)
    # the samples that are no case of d = 1 are walked
    for sigma in (2, 3, 4, 5):
        assert not hasattr(checker._family(sigma).samples[2], "_view")


def test_changed_certificate_shows_its_own_fields():
    # the view is sound for a tagged certificate only while it is unchanged:
    # it is frozen, its tag included, and a changed copy carries no tag
    cert = build_case(3, 7)
    for name in ("passed", "_view"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, name, None)
    copied = dataclasses.replace(cert)
    assert copied == cert and not hasattr(copied, "_view")
    shallow = copy.copy(cert)
    assert shallow == cert and shallow is not cert and weakref.ref(cert)() is cert
    failed = dataclasses.replace(cert, passed=False)
    assert failed.to_doc()["passed"] is False
    changed = _with_witness("glue_index_integral", index_squared=0)(cert)
    glue = changed.to_doc()["checks"][-1]
    assert glue["name"] == "glue_index_integral" and glue["witness"]["index_squared"] == 0
    by_hand = checker.CaseCertificate(**{k: getattr(cert, k) for k in checker._DOC_FIELDS})
    for other in (copied, shallow, failed, changed, by_hand):
        assert marshal.dumps(other.to_doc(), 2) == marshal.dumps(checker._doc(other), 2)
    assert verify_certificate(failed.to_doc()) == (False, ["passed does not match recomputation"])
    assert verify_certificate(changed.to_doc()) == (False, ["checks does not match recomputation"])


def test_tag_is_in_no_document():
    fields = list(checker._DOC_FIELDS)
    assert [f.name for f in dataclasses.fields(checker.CaseCertificate)] == fields
    for sigma, d in _PINNED:
        # a fresh case of the family: for d > 1 it holds sigma and d until a
        # field is read, and to_doc() reads none; d = 1 is its computed case
        cert = checker._family(sigma).case(d)
        lazy = fields if d == 1 else ["sigma", "d"]
        assert hasattr(cert, "_view") and list(vars(cert)) == lazy
        assert list(cert.to_doc()) == fields and list(vars(cert)) == lazy
        # _json fills every field, in order, and never the tag
        assert list(checker._json(cert, [])) == fields
        assert list(vars(cert)) == fields and hasattr(cert, "_view")
    build_case.cache_clear()  # an earlier read would have filled a cached case
    for p in (1000003, 1000033, 23):
        for sigma in (2, 3, 4, 5):
            verdict = decide_enriques(p, sigma)
            with pytest.raises(dataclasses.FrozenInstanceError):
                verdict.certificate = None  # the one its document splices in
            doc = verdict.to_doc()
            assert "_view" not in json.dumps(doc)
            if doc["certificate"] is not None:
                # the certificate's own to_doc(), which fills no field
                assert list(doc["certificate"]) == fields
                assert len(vars(verdict.certificate)) == (9 if verdict.d == 1 else 2)


def _outcome(read, cert):
    # what a reader gives: the repr of its value, or the error it raises
    try:
        return repr(read(cert))
    except Exception as exc:
        return type(exc), str(exc)


_READERS = {
    **{name: (lambda name: lambda c: getattr(c, name))(name) for name in checker._DOC_FIELDS},
    "==": lambda c: (c == c, c != c),
    "repr": repr,
    "replace": dataclasses.replace,
    "copy": copy.copy,
    # these three raise on both: a Check's read-only witness cannot be pickled
    "asdict": dataclasses.asdict,
    "deepcopy": copy.deepcopy,
    "pickle": pickle.dumps,
    "to_doc": lambda c: marshal.dumps(c.to_doc(), 2),
}


@pytest.mark.parametrize(
    "sigma, d", _PINNED + [(s, 10**4296) for s in (2, 3, 4, 5)], ids=lambda x: str(x)[:8]
)
def test_served_case_reads_as_its_template(sigma, d):
    # every public reader of a fresh served case, each its first read, gives
    # what it gives on the template's (at d = 1 the computed case's) certificate
    family = checker._family(sigma)
    if d == 1:
        template = checker._compute_case(sigma, 1)
    else:
        template = family.cert(d, family.prime_powers(d))
    for name, read in _READERS.items():
        cert = family.case(d)
        assert len(vars(cert)) == (9 if d == 1 else 2)
        assert _outcome(read, cert) == _outcome(read, template), name
        assert cert == template and template == cert and repr(cert) == repr(template)
        assert list(vars(cert)) == list(checker._DOC_FIELDS), name


@pytest.mark.parametrize("sigma", [2, 3, 4, 5])
def test_to_doc_refuses_ints_json_cannot_print(monkeypatch, sigma):
    # the largest entry is d_n = -+1024 d: 4300 digits at d = 10^4296, the
    # int-to-str limit, and 4301 at d = 10^4297
    json.dumps(build_case(sigma, 10**4296).to_doc())
    cert = build_case(sigma, 10**4297)
    # the template's document past the limit, built without the digit check
    doc = checker._json(cert, [])
    factored, factor = [], checker._prime_powers
    monkeypatch.setattr(checker, "_prime_powers", lambda n: factored.append(n) or factor(n))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        cert.to_doc()
    # is refused as one JSON could never carry, before 4d is factored
    ok, messages = verify_certificate(doc)
    assert not ok and len(messages) == 1
    assert messages[0].startswith("recomputation failed: Exceeds the limit")
    assert factored == []


def test_same_is_type_exact_and_never_raises():
    for a, b in permutations([1, 1.0, True], 2):
        assert not checker._same({"x": [a]}, {"x": [b]})
    assert not checker._same([1], (1,))
    cyclic = []
    cyclic.append(cyclic)
    assert checker._same(cyclic, [[]]) is False
    assert checker._same([Fraction(1)], [1]) is False


def _count_kernels(monkeypatch) -> Counter:
    """Count every call of the exact kernels, through whichever module of the
    package names them; the package's __init__ shadows the intmat module
    with the function intmat, so the module is imported by its full name."""
    calls = Counter()

    def counted(name, f):
        return lambda *args: calls.update([name]) or f(*args)

    intmat_module = importlib.import_module("k3enriques.intmat")
    for module in (intmat_module, lattice, embeddings, enumeration, checker):
        for name in ("_ldl", "det", "_bareiss", "snf", "_snf_diagonal", "_hnf"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Matrix, "__matmul__", counted("@", Matrix.__matmul__))
    return calls


def test_compute_case_runs_each_kernel_once_per_need(monkeypatch):
    # _ldl: N and M once each, shared by signature, determinant, the
    # degeneracy warning (the embedded lattice's last leading minor) and, for
    # N, count_norm; no det and no _bareiss; no snf, whose transforms no check
    # reads: the Smith diagonal of the case basis, cached by the embedding,
    # which proves it independent and is the embedding_primitive witness, and
    # N's divisors; @: b G and (b G) b^T per embedding and complement, shared
    # by the kernel of (b G)^T and the case's Gram matrices.  No b b^T or det
    # proves a basis independent: the complement's rows come from a
    # unimodular transform.  _hnf: the kernel, and one pass per Smith
    # diagonal, as the Hermite forms of N's Gram matrix and of the case
    # basis's transpose are already diagonal.
    calls = _count_kernels(monkeypatch)
    for sigma in (2, 3, 4, 5):
        calls.clear()
        assert checker._compute_case(sigma, 999999937).passed
        assert calls == Counter(
            {"_ldl": 2, "det": 0, "_bareiss": 0, "snf": 0, "_snf_diagonal": 2, "_hnf": 3, "@": 4}
        )


def test_gamma2_in_k3_runs_each_kernel_once_per_need(monkeypatch):
    # on a warm call, whichever test ran first: _ldl: the embedded lattice,
    # shared by the degeneracy warning and its discriminant, and the
    # complement's signature and determinant; no det: the model's
    # discriminant is a cached package constant; _bareiss: the glue inverse
    # rat_inv; the Smith diagonal: the embedding's basis, computed once by
    # the constructor, which refuses dependent rows on it, and read again by
    # is_primitive, and the complement's divisors; _hnf: the kernel, one pass
    # per Smith diagonal and the glue group's Hermite basis; @: b G and
    # (b G) b^T per embedding and complement
    assert checker.gamma2_in_k3().passed
    calls = _count_kernels(monkeypatch)
    assert checker.gamma2_in_k3().passed
    assert calls == Counter(
        {"_ldl": 2, "det": 0, "_bareiss": 1, "snf": 0, "_snf_diagonal": 2, "_hnf": 4, "@": 4}
    )


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_digests_pinned():
    certs = [build_case(s, d).to_doc() for s in range(2, 6) for d in range(1, 6)]
    assert _digest(certs) == "62af0c776a8769a15a23e0141b8550244a24df87df1bda6eba47bc7efc374536"


def test_verdict_digests_pinned():
    # p = 3 and 1 mod 4 (arth_rule False at sigma 2 and 4), and 23, where
    # sigma 2 and 4 are Unknown; pins reasons, crosschecks and certificates
    docs = [decide_enriques(p, s).to_doc() for p in (1000003, 1000033, 23) for s in range(1, 11)]
    assert _digest(docs) == "e3270289f1338a0e7dd6666bd38e6ef6123fbea3f479edb1b767ae1b938d359a"
    csv_digest = hashlib.sha256(survey(200).to_csv().encode()).hexdigest()
    assert csv_digest == "eb1d3b2eb897945e2683a8730b35f6b407632c02e7b588c78e59b879babb3a31"
    summary_digest = hashlib.sha256(survey(200).summary().encode()).hexdigest()
    assert summary_digest == "13e7e906ed20772fdd29caf49a13268d0012dd20363653d842065aa9c61451ea"


def test_gamma2_report_digest_pinned(gamma2_report):
    digest = _digest(checker._doc(gamma2_report))
    assert digest == "75c43041e319836a053f78e2005064634092770e9cea9fe06f14915e1ef710a8"


def test_gamma2_glue_digest_pinned(monkeypatch):
    # gamma2_in_k3 reports only the glue order; keep the glue data it builds
    kept = []
    computed = checker.glue_data
    monkeypatch.setattr(checker, "glue_data", lambda *args: kept.append(computed(*args)) or kept[-1])
    checker.gamma2_in_k3()
    (g,) = kept
    elements = [[str(x) for x in s1 + s2] for s1, s2 in g.elements]
    assert _digest(elements) == "09058c930bb792f0e8d5fa7d17f2f9b30926b1764ec36be476d3d4dfcf3e979c"
    assert extends_to(identity_map, identity_map, g)
    assert extends_to(identity_map, negation_map, g)


def test_fixture_discriminant_groups_digest_pinned():
    docs = []
    for name in FIXTURES:
        g = discriminant_group(load_lattice(fixture_path(name)))
        docs.append(
            [
                list(g.divisors),
                [[str(x) for x in v] for v in g.generators],
                [[str(x) for x in row] for row in g.bform],
                [str(x) for x in g.qvals],
            ]
        )
    assert _digest(docs) == "cdd3a09dff51a437cc7877951355c2f3ecfab4058ec67cb87eecbd5c1c944112"


def test_fixture_torsion_forms_digest_pinned():
    # the whole group as (element mod 1, q mod 2): the same for any choice of generators
    docs = []
    for name in FIXTURES:
        L = load_lattice(fixture_path(name))
        g = discriminant_group(L)
        den = max(g.divisors, default=1)
        gens = arr(intmat([[int(c * den) for c in v] for v in g.generators]))
        form = set()
        for ks in product(*(range(d) for d in g.divisors)):
            x = arr(intmat([ks])) @ gens % den if ks else arr(intmat([[0] * L.rank]))
            q = int((x @ arr(L.gram) @ x.T)[0, 0]) % (2 * den * den)
            form.add((tuple(str(Fraction(int(c), den)) for c in x[0]), str(Fraction(q, den * den))))
        assert len(form) == g.order
        docs.append(sorted(form))
    assert _digest(docs) == "a7fbbcaf6511e74f9d5ff9b903d349434c721efcd5d53f37a8e27783767eaa40"


def test_survey_small():
    s = survey(31)
    answers = {(v.p, v.sigma): v.answer for v in s.rows}
    for p in (29, 31):
        for sigma in range(1, 11):
            assert answers[(p, sigma)] == ("Yes" if sigma <= 5 else "No")
    assert answers[(23, 3)] == "Yes" and answers[(23, 2)] == "Unknown"
    assert answers[(11, 5)] == "Yes" and answers[(11, 4)] == "Unknown"
    assert "p=  19" in s.summary()
    assert s.summary().splitlines()[-1] == (
        "dichotomy (Yes iff sigma <= 5) holds for p = 19 and 23 < p <= 31: True"
    )
    assert s.to_csv().splitlines()[0] == "p,sigma,answer,d,reason"


@pytest.mark.parametrize("cell", [(29, 2), (19, 2)])
def test_survey_refuses_a_broken_dichotomy(monkeypatch, cell):
    decide = checker.decide_enriques

    def broken(p, sigma):
        v = decide(p, sigma)
        return dataclasses.replace(v, answer="No") if (p, sigma) == cell else v

    monkeypatch.setattr(checker, "decide_enriques", broken)
    with pytest.raises(RuntimeError, match="dichotomy pattern violated"):
        survey(31)


def test_survey_rows_ordered():
    s = survey(13)
    keys = [(v.p, v.sigma) for v in s.rows]
    assert keys == sorted(keys)
    assert {v.p for v in survey(12).rows} == {3, 5, 7, 11}  # pmax bounds p, even or odd
    assert {v.p for v in survey(3).rows} == {3}
    with pytest.raises(ValueError):
        survey(2)
