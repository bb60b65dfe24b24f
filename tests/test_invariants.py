import pytest

from braidshadow.diagram import BridgeParams, assemble, bridge_params
from braidshadow.factorization import BandFactor, Factorization, standard_factorization
from braidshadow.invariants import (
    InvariantLedger,
    euler_expected,
    genus_expected,
    make_ledger,
    transverse_sl,
)
from braidshadow.words import BraidError, BraidWord, identity


def test_genus_expected_values():
    assert genus_expected(1) == 0
    assert genus_expected(2) == 0
    assert genus_expected(3) == 1
    assert genus_expected(5) == 6
    with pytest.raises(BraidError):
        genus_expected(0)


def test_euler_check_examples():
    assert BridgeParams(4, 2, 2, 2, 0).euler() == euler_expected(2)
    assert BridgeParams(12, 3, 6, 3, 0).euler() == euler_expected(3)
    assert BridgeParams(5, 2, 2, 2, 0).euler() != euler_expected(2)


def test_transverse_sl():
    assert transverse_sl(identity(2)) == -2
    assert transverse_sl(identity(5)) == -5
    assert transverse_sl(identity(1)) == -1
    assert transverse_sl(BraidWord(3, (1, 2, -1))) == -2


# the d = 2 source sigma_1^2: one band of exponent 2, not smooth
_SINGULAR = Factorization(2, (BandFactor(identity(2), exponent=2),))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ledger_all_ok_for_standard_diagrams(d):
    f = standard_factorization(d)
    diag = assemble(f)
    params = bridge_params(diag)
    ledger = make_ledger(params, d, f)
    assert ledger.all_ok
    assert ledger.checks.keys() == {"euler", "sl1_matches_braid_word"}
    assert ledger.genus_expected == (d - 1) * (d - 2) // 2
    assert ledger.euler_expected == 3 * d - d * d
    assert ledger.sl == (-params.c1, -params.c2, -params.c3)
    # genus consistency with the parameter tuple
    assert 2 - params.euler() == 2 * ledger.genus_expected


def test_ledger_flags_failures():
    bad = BridgeParams(5, 2, 2, 2, 0)
    ledger = make_ledger(bad, 2)
    assert not ledger.checks["euler"]
    assert not ledger.all_ok


def test_ledger_sl1_defaults_to_minus_c1():
    p = BridgeParams(25, 4, 18, 3, 12)
    ledger = make_ledger(p, 3)
    assert ledger.sl == (-4, -18, -3)
    # without a source there is nothing to compare -c1 with
    assert ledger.checks == {"euler": True}
    # with one, L1 closes the trivial 3-braid: sl1 = -3, and c1 = 4 fails it
    ledger = make_ledger(p, 3, standard_factorization(3))
    assert ledger.sl == (-3, -18, -3)
    assert ledger.checks == {"euler": True, "sl1_matches_braid_word": False}


def test_ledger_for_singular_input_skips_smooth_identities():
    ledger = make_ledger(BridgeParams(2, 2, 1, 1, 0), 2, _SINGULAR)
    assert "euler" not in ledger.checks
    assert ledger.checks == {"sl1_matches_braid_word": True}
    assert ledger.all_ok


def test_a_ledger_that_checks_nothing_does_not_pass():
    ledger = InvariantLedger(2, 0, 2, (-2, -1, -1), {})
    assert not ledger.all_ok


def test_every_ledger_check_can_fail():
    good = BridgeParams(24, 3, 18, 3, 12)
    f = standard_factorization(3)
    full = make_ledger(good, 3, f)
    assert full.all_ok
    failing = {
        # one bridge point pair too many
        "euler": make_ledger(BridgeParams(25, 3, 18, 3, 12), 3, f),
        # c1 differs from d, so -c1 differs from the sl1 of L1
        "sl1_matches_braid_word": make_ledger(BridgeParams(25, 4, 18, 3, 12), 3, f),
    }
    # every key the ledger can emit has an input that makes it false
    assert failing.keys() == full.checks.keys()
    for key, ledger in failing.items():
        assert ledger.checks[key] is False, key
        assert not ledger.all_ok
