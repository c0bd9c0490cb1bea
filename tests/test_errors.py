import numpy as np
import pytest

from adjointgp import SolverError
from adjointgp.errors import check_march


def test_finite_rows_pass():
    check_march("forward", np.ones((3, 5, 4)))
    check_march("adjoint", np.ones((1, 5)), reverse=True)


@pytest.mark.parametrize("reverse, step", [(False, 4), (True, 2)])
def test_names_the_step_and_right_hand_side(reverse, step):
    # (n, time cells, space) rows of a bank, one non-finite value at row 2,
    # time cell 4 of 7
    rows = np.zeros((3, 7, 5))
    rows[2, 4, 1] = np.nan
    with pytest.raises(SolverError, match=rf"^bank solve produced non-finite "
                                          rf"values at step {step} \(right-hand side 2\)$"):
        check_march("bank", rows, reverse)


def test_names_the_first_bad_cell_in_march_order():
    # (n, time cells) rows as the ODE writes them: a diverged row stays
    # non-finite up to the last cell the march writes
    rows = np.zeros((2, 9))
    rows[0, 5:] = np.inf
    rows[1, 2:] = np.nan
    with pytest.raises(SolverError, match=r"at step 2 \(right-hand side 1\)$"):
        check_march("forward", rows)
    rows = np.zeros((2, 9))
    rows[0, :7] = -np.inf
    rows[1, :5] = np.nan
    with pytest.raises(SolverError, match=r"at step 2 \(right-hand side 0\)$"):
        check_march("adjoint", rows, reverse=True)


def test_single_row_names_no_right_hand_side():
    rows = np.zeros((1, 6))
    rows[0, 3] = np.inf
    with pytest.raises(SolverError, match=r"^forward solve produced non-finite values at step 3$"):
        check_march("forward", rows)
