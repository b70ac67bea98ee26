"""Hardware branch predictors.

Unlike the PPM predictors of :mod:`repro.mica.ppm` (theoretical,
microarchitecture-independent), these are buildable table-based
predictors used by the microarchitecture-dependent simulators:

* :class:`BimodalPredictor` — per-PC 2-bit saturating counters;
* :class:`GSharePredictor` — global history XOR PC into 2-bit counters;
* :class:`LocalHistoryPredictor` — two-level per-PC history (the
  21164A-style and 21264 local component);
* :class:`TournamentPredictor` — the Alpha 21264 chooser combining the
  local and a global (gshare-style) component.

**Batch engine.**  Every predictor trains on *actual* outcomes, never on
its own predictions, so the full history streams are known up front:
each predictor's :meth:`~BranchPredictor.simulate_batch` materializes
the (global or per-PC) history registers for the whole branch stream,
maps every branch to its counter cell, and recovers the counter value
each branch observed with a grouped *clamped* prefix scan over runs of
equal updates — saturating updates compose in closed form (see
:func:`_saturating_counter_states`).  Cell ids are radix-sorted as
``uint16`` keys when the table allows.  No per-branch Python loops, and
the tables/registers are left in exactly the state the scalar
``predict``/``update`` path produces.
:func:`simulate_predictor_reference` retains the scalar loop as the
executable specification the equivalence tests pin the batch paths
against, bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .cache import _run_firsts, _stable_order


def _check_power_of_two(value: int, label: str) -> None:
    if value <= 0 or value & (value - 1):
        raise SimulationError(f"{label} must be a positive power of two")


def _saturating_counter_states(
    table: np.ndarray,
    cells: np.ndarray,
    deltas: np.ndarray,
    low: int,
    high: int,
) -> np.ndarray:
    """Counter value each update observes; the table is advanced in place.

    ``cells[t]`` indexes the saturating counter that event ``t``
    (program order) updates by ``deltas[t]`` (clamped to ``[low,
    high]``; a delta of 0 models a read-only event).  Events are grouped
    per cell with one stable key sort.  One clamped update is the map
    ``v -> min(high, max(low, v + x))``; such clamp-affine maps are
    closed under composition::

        (a2,b2,s2) o (a1,b1,s1) = (max(a2, a1+s2),
                                   min(b2, max(a2, b1+s2)),
                                   s1+s2)

    where a map ``(a,b,s)`` sends ``v`` to ``min(b, max(a, v+s))``.  A
    run of ``k`` consecutive updates of one cell by the same ``x`` is
    the single map ``(low, high, k*x)`` on ``[low, high]``, where every
    counter value lies.  A grouped logarithmic-doubling scan over that
    monoid, one element per run, yields every prefix composition at
    once: the value a cell held *entering* each run, and the closing
    value written back into ``table``.  The ``j``-th update of a run
    observes ``min(high, max(low, entering + j*x))``, so no per-event
    Python loop is needed.

    Returns:
        Per-event counter values, in program order.
    """
    n = len(cells)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = _stable_order(cells, len(table))
    sorted_cells = cells[order]
    sorted_deltas = deltas[order].astype(np.int64)
    first = _run_firsts(sorted_cells)
    run_first = first.copy()
    run_first[1:] |= sorted_deltas[1:] != sorted_deltas[:-1]
    run_starts = np.flatnonzero(run_first)
    runs = len(run_starts)
    run_lengths = np.diff(np.append(run_starts, n))
    step_sizes = sorted_deltas[run_starts]
    first = first[run_starts]
    positions = np.arange(runs, dtype=np.int64)
    within = positions - np.maximum.accumulate(np.where(first, positions, 0))

    # Inclusive prefix composition per group, by doubling: after the
    # k-th pass each run holds the composition of the trailing
    # min(2^k, within+1) runs of its group.
    lower = np.full(runs, low, dtype=np.int64)
    upper = np.full(runs, high, dtype=np.int64)
    shift = step_sizes * run_lengths
    step = 1
    while step < runs:
        merge = within >= step
        if not merge.any():
            break
        source = np.maximum(positions - step, 0)
        earlier_lower = lower[source]
        earlier_upper = upper[source]
        earlier_shift = shift[source]
        new_lower = np.maximum(lower, earlier_lower + shift)
        new_upper = np.minimum(upper, np.maximum(lower, earlier_upper + shift))
        new_shift = earlier_shift + shift
        lower = np.where(merge, new_lower, lower)
        upper = np.where(merge, new_upper, upper)
        shift = np.where(merge, new_shift, shift)
        step *= 2

    initial = table[sorted_cells[run_starts]].astype(np.int64)
    # State entering run r = the exclusive prefix composition (the
    # inclusive one of the previous run) applied to the cell's
    # pre-batch value; the first run of a group sees it untouched.
    entering = np.empty(runs, dtype=np.int64)
    entering[1:] = np.minimum(
        upper[:-1], np.maximum(lower[:-1], initial[1:] + shift[:-1])
    )
    entering[first] = initial[first]

    last = np.empty(runs, dtype=bool)
    last[:-1] = first[1:]
    last[-1] = True
    closing = np.minimum(upper, np.maximum(lower, initial + shift))
    table[sorted_cells[run_starts[last]]] = closing[last].astype(table.dtype)

    run = np.repeat(positions, run_lengths)
    offset = np.arange(n, dtype=np.int64) - run_starts[run]
    seen = entering[run] + offset * step_sizes[run]
    result = np.empty(n, dtype=np.int64)
    result[order] = np.clip(seen, low, high)
    return result


def _history_streams(
    bits: np.ndarray,
    history_bits: int,
    mask: int,
    initial: np.ndarray,
    within: np.ndarray,
) -> np.ndarray:
    """Shift-register contents each event observes.

    ``bits`` are the 0/1 outcomes in register-update order, ``within``
    the event's ordinal inside its register's stream (events of one
    register must be contiguous), ``initial`` each event's register
    seed.  The register before event ``t`` is its last ``history_bits``
    outcomes packed LSB-first, padded with the seed's surviving bits —
    assembled by ``history_bits`` masked shifts, never per-event.
    """
    n = len(bits)
    packed = np.zeros(n, dtype=np.int64)
    for age in range(history_bits):
        if age + 1 >= n:
            break
        source = np.zeros(n, dtype=np.int64)
        source[age + 1 :] = bits[: n - age - 1]
        packed |= np.where(within > age, source, 0) << age
    seed_shift = np.minimum(within, history_bits)
    seed = np.where(within < history_bits, initial << seed_shift, 0)
    return (seed | packed) & mask


class BranchPredictor(ABC):
    """A trainable taken/not-taken predictor."""

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""


class BimodalPredictor(BranchPredictor):
    """Per-PC 2-bit saturating counters."""

    def __init__(self, entries: int = 2048):
        _check_power_of_two(entries, "entries")
        self._mask = entries - 1
        self._counters = np.full(entries, 1, dtype=np.int8)  # Weakly NT.

    def predict(self, pc: int) -> bool:
        return bool(self._counters[(pc >> 2) & self._mask] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        index = (pc >> 2) & self._mask
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        elif counter > 0:
            self._counters[index] = counter - 1

    def simulate_batch(
        self, branch_pcs: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Mispredict mask for a branch stream; trains the tables."""
        n = len(branch_pcs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        taken = outcomes.astype(bool)
        cells = (branch_pcs.astype(np.int64) >> 2) & self._mask
        before = _saturating_counter_states(
            self._counters, cells, np.where(taken, 1, -1), 0, 3
        )
        return (before >= 2) != taken


class GSharePredictor(BranchPredictor):
    """Global-history predictor: history XOR PC indexes 2-bit counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        _check_power_of_two(entries, "entries")
        self._mask = entries - 1
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._counters = np.full(entries, 1, dtype=np.int8)

    def predict(self, pc: int) -> bool:
        index = ((pc >> 2) ^ self._history) & self._mask
        return bool(self._counters[index] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        index = ((pc >> 2) ^ self._history) & self._mask
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        elif counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def simulate_batch(
        self, branch_pcs: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Mispredict mask for a branch stream; trains tables/history."""
        n = len(branch_pcs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        taken = outcomes.astype(bool)
        bits = taken.astype(np.int64)
        histories = _history_streams(
            bits,
            self._history_bits,
            self._history_mask,
            np.full(n, self._history, dtype=np.int64),
            np.arange(n, dtype=np.int64),
        )
        cells = ((branch_pcs.astype(np.int64) >> 2) ^ histories) & self._mask
        before = _saturating_counter_states(
            self._counters, cells, np.where(taken, 1, -1), 0, 3
        )
        self._history = int(
            ((histories[-1] << 1) | bits[-1]) & self._history_mask
        )
        return (before >= 2) != taken


class LocalHistoryPredictor(BranchPredictor):
    """Two-level predictor with per-PC local histories.

    Level one records each branch's recent outcome pattern; level two
    holds saturating counters indexed by that pattern (3-bit counters,
    as in the 21264 local component).
    """

    def __init__(self, history_entries: int = 1024, history_bits: int = 10):
        _check_power_of_two(history_entries, "history_entries")
        self._entry_mask = history_entries - 1
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._histories = np.zeros(history_entries, dtype=np.int64)
        self._counters = np.full(1 << history_bits, 3, dtype=np.int8)

    def predict(self, pc: int) -> bool:
        history = self._histories[(pc >> 2) & self._entry_mask]
        return bool(self._counters[history] >= 4)

    def update(self, pc: int, taken: bool) -> None:
        entry = (pc >> 2) & self._entry_mask
        history = self._histories[entry]
        counter = self._counters[history]
        if taken:
            if counter < 7:
                self._counters[history] = counter + 1
        elif counter > 0:
            self._counters[history] = counter - 1
        self._histories[entry] = ((history << 1) | int(taken)) & (
            self._history_mask
        )

    def _materialize_histories(
        self, branch_pcs: np.ndarray, taken: np.ndarray
    ) -> np.ndarray:
        """Per-branch local-history values, advancing level one."""
        n = len(branch_pcs)
        entries = (branch_pcs.astype(np.int64) >> 2) & self._entry_mask
        order = _stable_order(entries, len(self._histories))
        sorted_entries = entries[order]
        sorted_bits = taken[order].astype(np.int64)
        first = _run_firsts(sorted_entries)
        within = np.arange(n, dtype=np.int64)
        within -= np.maximum.accumulate(np.where(first, within, 0))
        sorted_histories = _history_streams(
            sorted_bits,
            self._history_bits,
            self._history_mask,
            self._histories[sorted_entries],
            within,
        )
        last = np.empty(n, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        self._histories[sorted_entries[last]] = (
            (sorted_histories[last] << 1) | sorted_bits[last]
        ) & self._history_mask
        histories = np.empty(n, dtype=np.int64)
        histories[order] = sorted_histories
        return histories

    def simulate_batch(
        self, branch_pcs: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Mispredict mask for a branch stream; trains both levels."""
        n = len(branch_pcs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        taken = outcomes.astype(bool)
        histories = self._materialize_histories(branch_pcs, taken)
        before = _saturating_counter_states(
            self._counters, histories, np.where(taken, 1, -1), 0, 7
        )
        return (before >= 4) != taken


class TournamentPredictor(BranchPredictor):
    """The Alpha 21264 tournament scheme.

    A chooser table of 2-bit counters (indexed by global history) picks
    between a local two-level component and a global component per
    prediction; the chooser trains toward whichever component was right.
    """

    def __init__(
        self,
        local_entries: int = 1024,
        local_history_bits: int = 10,
        global_entries: int = 4096,
        global_history_bits: int = 12,
    ):
        self._local = LocalHistoryPredictor(local_entries, local_history_bits)
        self._global = GSharePredictor(global_entries, global_history_bits)
        self._chooser = np.full(global_entries, 2, dtype=np.int8)
        self._chooser_mask = global_entries - 1
        self._history = 0
        self._history_bits = global_history_bits
        self._history_mask = (1 << global_history_bits) - 1

    def predict(self, pc: int) -> bool:
        use_global = self._chooser[self._history & self._chooser_mask] >= 2
        if use_global:
            return self._global.predict(pc)
        return self._local.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        local_prediction = self._local.predict(pc)
        global_prediction = self._global.predict(pc)
        chooser_index = self._history & self._chooser_mask
        if local_prediction != global_prediction:
            counter = self._chooser[chooser_index]
            if global_prediction == taken:
                if counter < 3:
                    self._chooser[chooser_index] = counter + 1
            elif counter > 0:
                self._chooser[chooser_index] = counter - 1
        self._local.update(pc, taken)
        self._global.update(pc, taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def simulate_batch(
        self, branch_pcs: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Mispredict mask for a branch stream; trains all components."""
        n = len(branch_pcs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        taken = outcomes.astype(bool)
        bits = taken.astype(np.int64)
        # Component predictions: each engine's mispredict mask XOR the
        # outcome recovers the prediction, and running the engines also
        # trains them exactly as per-branch updates would.
        local_predictions = self._local.simulate_batch(branch_pcs, taken) ^ taken
        global_predictions = (
            self._global.simulate_batch(branch_pcs, taken) ^ taken
        )
        histories = _history_streams(
            bits,
            self._history_bits,
            self._history_mask,
            np.full(n, self._history, dtype=np.int64),
            np.arange(n, dtype=np.int64),
        )
        cells = histories & self._chooser_mask
        disagree = local_predictions != global_predictions
        toward_global = np.where(global_predictions == taken, 1, -1)
        deltas = np.where(disagree, toward_global, 0)
        before = _saturating_counter_states(
            self._chooser, cells, deltas, 0, 3
        )
        predictions = np.where(before >= 2, global_predictions, local_predictions)
        self._history = int(
            ((histories[-1] << 1) | bits[-1]) & self._history_mask
        )
        return predictions != taken


@dataclass(frozen=True)
class PredictorStats:
    """Outcome of a predictor simulation."""

    branches: int
    mispredictions: int

    @property
    def misprediction_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches


def simulate_predictor(
    predictor: BranchPredictor,
    branch_pcs: np.ndarray,
    outcomes: np.ndarray,
    return_mask: bool = False,
):
    """Run a predictor over a branch stream (batch engine).

    Args:
        predictor: the predictor to drive.
        branch_pcs: PCs of the dynamic branches, in program order.
        outcomes: matching taken/not-taken outcomes.
        return_mask: also return the per-branch mispredict mask (used by
            the pipeline models to place misprediction bubbles).

    Returns:
        :class:`PredictorStats`, or ``(stats, mask)`` when
        ``return_mask`` is set.

    Predictors exposing ``simulate_batch`` (all four built-ins) run the
    vectorized engine; foreign :class:`BranchPredictor` subclasses fall
    back to the scalar loop.
    """
    batch = getattr(predictor, "simulate_batch", None)
    if batch is None:
        return simulate_predictor_reference(
            predictor, branch_pcs, outcomes, return_mask
        )
    mask = batch(branch_pcs, outcomes)
    stats = PredictorStats(branches=len(mask), mispredictions=int(mask.sum()))
    if return_mask:
        return stats, mask
    return stats


def simulate_predictor_reference(
    predictor: BranchPredictor,
    branch_pcs: np.ndarray,
    outcomes: np.ndarray,
    return_mask: bool = False,
):
    """Scalar per-branch loop — the executable specification.

    Identical results (mask, statistics, final predictor state) to
    :func:`simulate_predictor`; retained for the equivalence tests and
    the perf harness.
    """
    n = len(branch_pcs)
    mask = np.empty(n, dtype=bool) if return_mask else None
    mispredictions = 0
    pcs = branch_pcs.tolist()
    takens = outcomes.tolist()
    predict = predictor.predict
    update = predictor.update
    for position in range(n):
        pc = pcs[position]
        taken = bool(takens[position])
        wrong = predict(pc) != taken
        if wrong:
            mispredictions += 1
        if mask is not None:
            mask[position] = wrong
        update(pc, taken)
    stats = PredictorStats(branches=n, mispredictions=mispredictions)
    if return_mask:
        return stats, mask
    return stats
