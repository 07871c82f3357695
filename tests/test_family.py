"""Every public function that takes a family of PMFs accepts it in every form.

A family enters through ``as_channel`` alone, so a Channel, a 2-D array, a
list of lists, a list of Pmfs and a list mixing the three kinds of row all
give the same answer; rows of unequal length raise AlphabetMismatchError and
a lone row raises ValidationError wherever at least two are needed.
"""

import numpy as np
import pytest

import doeblin as db
from doeblin import AlphabetMismatchError, ValidationError, lp
from doeblin.coupling import minimal_union_mass
from doeblin.fusion import fuse_min

# Rows whose sums are not exact in binary, so each form's normalization runs.
FAMILY = [[0.1, 0.6, 0.3], [0.35, 0.15, 0.5], [0.2, 0.2, 0.6]]
PRIOR = [0.2, 0.3, 0.5]
RAGGED = [[0.5, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]
SINGLE = [[0.2, 0.3, 0.5]]
# A trio past the limit (tau_max2 = 1.05), so minimal_coupling_max takes its
# three-marginal regime; the first two row sums are not exact either.
TRIO_PAST_LIMIT = [[0.3, 0.35, 0.35], [0.35, 0.3, 0.35], [0.35, 0.35, 0.3]]


def _oracle(res):
    return [res.value, res.witness]


def _fused(res):
    return [res.fused.to_list(), res.agreement]


FUNCTIONS = {
    "doeblin": db.doeblin,
    "max_doeblin": db.max_doeblin,
    "max2_doeblin": db.max2_doeblin,
    "dobrushin_tv": db.dobrushin_tv,
    "report": lambda f: db.report(f).to_dict(),
    "maximal_coupling": lambda f: db.maximal_coupling(f).to_dict(),
    "minimal_coupling_max": lambda f: db.minimal_coupling_max(f).to_dict(),
    "minimal_coupling_max_n3": lambda f: db.minimal_coupling_max(f).to_dict(),
    "verify_coupling": lambda f: db.verify_coupling(db.maximal_coupling(FAMILY), f).to_dict(),
    "minimal_union_mass": minimal_union_mass,
    "fuse_min": lambda f: _fused(fuse_min(f)),
    "coupling_diag_opt": lambda f: _oracle(lp.coupling_diag_opt(f)),
    "coupling_union_opt": lambda f: _oracle(lp.coupling_union_opt(f)),
    "min_degroot": lambda f: db.min_degroot(PRIOR, f),
    "max_degroot": lambda f: db.max_degroot(PRIOR, f),
}
# The family each function is checked on, where it is not FAMILY.
FAMILY_OF = {"minimal_coupling_max_n3": TRIO_PAST_LIMIT}

# tau and tau_max of a single PMF are defined (both are 1): a one-row channel
# is a channel.  Every other function needs at least two rows.
MULTIWAY = sorted(set(FUNCTIONS) - {"doeblin", "max_doeblin"})

ROW_KINDS = (db.Pmf, list, np.array)

SEQUENCE_FORMS = {
    "lists": lambda rows: [list(r) for r in rows],
    "pmfs": lambda rows: [db.Pmf(r) for r in rows],
    "mixed": lambda rows: [ROW_KINDS[i % 3](r) for i, r in enumerate(rows)],
}
FORMS = {"channel": db.Channel, "ndarray": np.array, **SEQUENCE_FORMS}


def _assert_same(got, want):
    """Equal structure and equal bits: every row is normalized once, where it
    enters, so every form gives the same floats."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_form_gives_the_same_answer(name, form):
    fn, family = FUNCTIONS[name], FAMILY_OF.get(name, FAMILY)
    _assert_same(fn(FORMS[form](family)), fn(family))


@pytest.mark.parametrize("form", sorted(SEQUENCE_FORMS))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_ragged_rows_raise_alphabet_mismatch(name, form):
    with pytest.raises(AlphabetMismatchError):
        FUNCTIONS[name](SEQUENCE_FORMS[form](RAGGED))


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", MULTIWAY)
def test_single_row_raises_validation_error(name, form):
    with pytest.raises(ValidationError):
        FUNCTIONS[name](FORMS[form](SINGLE))


@pytest.mark.parametrize("name", ["doeblin", "max_doeblin"])
def test_single_row_coefficients_are_one(name):
    assert FUNCTIONS[name](SINGLE) == pytest.approx(1.0, abs=1e-15)


def test_each_row_is_normalized_once():
    """A Pmf row, a raw row and a Channel's row come out with the same bits:
    the Pmf normalizes its row once, and a Channel keeps such rows as they are."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = rng.random(int(rng.integers(2, 40)))
        x /= x.sum()
        want = db.Channel([x, x]).matrix.tobytes()
        assert db.Pmf(x).probs.tobytes() + db.Pmf(x).probs.tobytes() == want
        for rows in ([db.Pmf(x), db.Pmf(x)], [db.Pmf(x), list(x)], db.Channel([x, x])):
            assert db.Channel(rows).matrix.tobytes() == want
