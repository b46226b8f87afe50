"""Every reformulated check against its reference form, over one case x plant x dtype table.

Each row names a case, a plant and a dtype of tests/oracles.py's registries and
a check of oracles.CHECKS, with the comparator that gates it:

- same, the reference form's outcome bit for bit, or within radius(T) where an
  entry's facts carry an err; equal, bit for bit (arrays with their dtype);
- assert_certifies, the certified power relation against its exact form;
- reads_exact, the strong bundle against its exact pairwise loop, its commutator
  reading within the stated terms above the exact maximum;
- eigenframe, the outcome of the table read without the standard basis
  (oracles.eigenframe), bit for bit; agree, that outcome under a hermitean plant
  below RHO, each number within its stated E terms, 32 scale^2 max ||E_g||_F.

Each row also holds the plant to its frame: the table clears the standard basis
exactly when the case is diagonal and the plant keeps it so.  With its facts read,
the strong bundle calls no eigh and one SVD for each pair of rows that do not
clear it, and one more to confirm a pair witness.  A new table source adds cases
and rows here.
"""

import numpy as np
import pytest

from oracles import (
    CASES, CHECKS, PLANTS, agree, assert_certifies, case_table, eigenframe, equal, family, first_moved,
    outcome, reads_exact, same,
)

PER_ENTRY = ("cocycle_law", "inverse_relation", "power_relation", "quasi_invariance", "strong", "structure")
CERTIFIED = ("cocycle_law", "power_relation", "power_relation_bound", "quasi_invariance", "strong",
             "strong_entries", "facts")
STANDARD = ("cocycle_law", "inverse_relation", "kappa", "locally_trivial", "normalization", "power_relation",
            "quasi_invariance", "restriction", "structure")
PLANTED = ["clean:product-d2-S4", "clean:product-d2-S3-in-5", "clean:trivial-d2-S4"]


def rows(names, plants, checks, comparator=None):
    """(case, plant, dtype, check, comparator) for each case in each of its dtypes; the check's own
    comparator against its reference form unless one is named."""
    return [(name, plant, dtype, check, comparator or CHECKS[check][2])
            for name in names for plant in plants for dtype in CASES[name].dtypes for check in checks]


ROWS = [
    # blocked stacked checks against their per-entry loops: clean, the CLI's plant, a negated entry
    *rows(family("blocked"), ("clean", "cli", "negated"), PER_ENTRY),
    *rows(family("blocked"), ("clean", "cli"), ("facts",)),
    *rows([name for name in family("blocked") if "D32" not in name], ("clean", "cli"),
          ("inverse_defects", "mean_defects")),
    # rotated tables, every entry decomposed, against their exact per-entry forms
    *rows([name for name in family("rotated") if "D32" in name], ("clean", "cli"), CERTIFIED),
    *rows([name for name in family("rotated") if "D32" not in name],
          ("clean", "cli", "skewed", "mixed", "projected", "negated", "dropped"), CERTIFIED),
    # diagonal tables read in the standard basis: the dense values and the eigenframe's reports
    *rows(family("clean"), ("clean",), ("facts", "inverse_defects", "mean_defects", "locally_trivial",
                                        "restriction", "structure")),
    *rows(family("clean"), ("clean",), STANDARD, "eigenframe"),
    *rows(PLANTED, ("cli", "negated", "projected"), STANDARD, "eigenframe"),
    *rows(family("clean"), ("below_rho_involution", "below_rho_pair"), STANDARD, "agree"),
    # and the strong bundle against its exact pairwise loop
    *rows(family("clean"), ("clean", "below_rho_involution", "below_rho_pair"), ("strong",)),
    *rows(PLANTED, ("cli", "negated", "projected"), ("strong",)),
    # the entry screens and the strong bounds against their per-check loops
    *rows(family("entry"), ("clean",), ("singular_screen", "strong_bounds", "strong_entries",
                                        "strong_entries_gns")),
    # the GNS square roots, one stacked eigh a block, against one eigh an entry
    *rows(family("blocked"), ("clean", "cli", "negated"), ("unitaries",)),
    *rows(family("strong"), ("clean",), ("unitaries",)),
]


@pytest.mark.parametrize("name, plant, dtype, check, comparator", ROWS, ids=["-".join(r) for r in ROWS])
def test_a_check_meets_its_reference_form(name, plant, dtype, check, comparator, monkeypatch):
    phi, T = case_table(name, plant, dtype)
    assert (T.frame() is not None) == (CASES[name].diagonal and PLANTS[plant][1])
    run, reference, own = CHECKS[check]
    T.facts, T.split
    given = {"svd": 0, "eigh": 0}
    for routine in given:
        def counted(A, *args, fn=getattr(np.linalg, routine), routine=routine, **kwargs):
            given[routine] += len(np.reshape(A, (-1,) + np.shape(A)[-2:]))
            return fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, routine, counted)
    got = outcome(run, phi, T)
    monkeypatch.undo()
    if check == "strong":  # one SVD a pair of rows off the frame, and one to confirm a pair witness
        m = np.count_nonzero(~T.operand.mask)
        assert given == {"svd": m * (m - 1) // 2 + (got.details["commutators"] > got.tolerance), "eigh": 0}
    if comparator == "eigenframe":
        assert got == outcome(run, phi, eigenframe(T))
    elif comparator == "agree":
        agree(got, outcome(run, phi, eigenframe(T)), 32 * T.scale() ** 2 * T.split[2].max())
    else:
        assert comparator == own
        want = outcome(reference, phi, T)
        if comparator == "assert_certifies":
            # a hermitean plant leaves a failing report; every other plant makes the relation raise
            assert_certifies(got, want, T, [first_moved(T)] if plant in ("mixed", "hermitean") else [])
        elif comparator == "same":
            same(got, want, T)
        elif comparator == "reads_exact":
            reads_exact(got, want, T)
        else:
            equal(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_is_built_as_declared(name):
    # the stack in the first declared dtype, its frame as declared, and a fresh table on each call
    phi, T = case_table(name)
    assert T.stack.dtype == np.dtype(CASES[name].dtypes[0])
    assert (T.frame() is not None) == CASES[name].diagonal
    assert case_table(name)[1] is not T and "facts" not in vars(T.operand)


def test_the_differential_set_holds_real_and_complex_tables():
    assert {case_table(name)[1].stack.dtype for name in family("blocked")} == {np.dtype(float),
                                                                                np.dtype(complex)}
    assert {dtype for _, _, dtype, *_ in ROWS} == {"float64", "complex128"}
