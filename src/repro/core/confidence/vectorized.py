"""Closed-form ``conf()`` for single-atom U-relations, vectorized.

A U-relation with ``cond_arity == 1`` -- the shape ``repair key`` and
``pick tuples`` produce, and any selection or projection of one -- has a
one-atom condition per row, so a group's lineage is a disjunction of
atoms ``x = v``.  Two facts about atoms give the answer without building
a :class:`~repro.core.lineage.Lineage`:

- atoms on the *same* variable are mutually exclusive (a variable takes
  one value per world), so P(x = v₁ ∨ x = v₂ ∨ …) = Σ over the distinct
  values of P(x = vᵢ);
- atoms on *different* variables are independent events.

Hence, per group,

    P(group) = 1 − ∏_x (1 − Σ_{distinct v} P(x = v)).

Duplicate atoms count once, zero-probability atoms add 0, and the
always-true atom (the reserved top variable, probability 1) makes its
group certain -- exactly what simplification and the closed forms of the
per-group dispatcher would conclude, at a fraction of the cost.

:func:`single_atom_confidences` computes this with NumPy over the
condition columns when available and with a plain loop otherwise.  Both
sum each variable's atoms in ascending value order and multiply the
per-variable complements in ascending variable order, one term at a
time, so the two paths -- and therefore the serial executor and the
pool workers (:mod:`repro.engine.parallel`), which both call this
function on a group's rows -- return bit-identical answers.  A group's
answer depends only on its own rows, never on which other groups share
the call.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro.engine.columnar import HAVE_NUMPY, np

#: Below this many indexed rows the plain loop beats array setup.
_NUMPY_MIN_ROWS = 64


def single_atom_confidences(
    var_column: Sequence[int],
    val_column: Sequence[int],
    weights: Sequence[float],
    row_groups: Sequence[Sequence[int]],
) -> List[Tuple[float, int, int]]:
    """Per group of row indexes: ``(probability, distinct atoms, distinct
    variables)`` of the disjunction of the rows' single-atom conditions.

    ``var_column``/``val_column`` are the relation's one condition pair,
    ``weights`` the per-row atom marginals
    (:meth:`~repro.core.urelation.URelation.condition_probabilities`).
    """
    total = sum(len(group) for group in row_groups)
    if HAVE_NUMPY and total >= _NUMPY_MIN_ROWS:
        try:
            return _numpy_confidences(var_column, val_column, weights, row_groups, total)
        except (TypeError, ValueError, OverflowError):
            pass  # non-integer condition cells: the loop handles anything
    return _loop_confidences(var_column, val_column, weights, row_groups)


def _loop_confidences(
    var_column: Sequence[int],
    val_column: Sequence[int],
    weights: Sequence[float],
    row_groups: Sequence[Sequence[int]],
) -> List[Tuple[float, int, int]]:
    out: List[Tuple[float, int, int]] = []
    for indexes in row_groups:
        atoms: Dict[int, Dict[int, float]] = {}
        for row in indexes:
            per_value = atoms.setdefault(var_column[row], {})
            value = val_column[row]
            if value not in per_value:
                per_value[value] = weights[row]
        miss = 1.0
        atom_count = 0
        for var in sorted(atoms):
            per_value = atoms[var]
            mass = 0.0
            for value in sorted(per_value):
                mass += per_value[value]
            miss *= 1.0 - mass
            atom_count += len(per_value)
        out.append((1.0 - miss, atom_count, len(atoms)))
    return out


def _numpy_confidences(
    var_column: Sequence[int],
    val_column: Sequence[int],
    weights: Sequence[float],
    row_groups: Sequence[Sequence[int]],
    total: int,
) -> List[Tuple[float, int, int]]:
    n_groups = len(row_groups)
    lengths = np.fromiter((len(g) for g in row_groups), dtype=np.int64, count=n_groups)
    rows = np.fromiter(
        itertools.chain.from_iterable(row_groups), dtype=np.int64, count=total
    )
    group = np.repeat(np.arange(n_groups, dtype=np.int64), lengths)
    var = np.asarray(var_column, dtype=np.int64)[rows]
    val = np.asarray(val_column, dtype=np.int64)[rows]
    p = np.asarray(weights, dtype=np.float64)[rows]
    # Sort by (group, variable, value); keep the first of each distinct
    # atom per group.
    order = np.lexsort((val, var, group))
    group, var, val, p = group[order], var[order], val[order], p[order]
    first_atom = np.ones(total, dtype=bool)
    first_atom[1:] = (
        (group[1:] != group[:-1]) | (var[1:] != var[:-1]) | (val[1:] != val[:-1])
    )
    group, var, p = group[first_atom], var[first_atom], p[first_atom]
    # One segment per (group, variable): the mutually exclusive atoms.
    first_var = np.ones(len(group), dtype=bool)
    first_var[1:] = (group[1:] != group[:-1]) | (var[1:] != var[:-1])
    segment = np.cumsum(first_var) - 1
    # ufunc.at applies its terms one at a time in index order: the same
    # sequence of roundings as the loop above.
    mass = np.zeros(int(segment[-1]) + 1, dtype=np.float64)
    np.add.at(mass, segment, p)
    segment_group = group[first_var]
    miss = np.ones(n_groups, dtype=np.float64)
    np.multiply.at(miss, segment_group, 1.0 - mass)
    probabilities = (1.0 - miss).tolist()
    atom_counts = np.bincount(group, minlength=n_groups).tolist()
    var_counts = np.bincount(segment_group, minlength=n_groups).tolist()
    return list(zip(probabilities, atom_counts, var_counts))
