"""Synthetic data generation and loss-series ingestion.

Two data sources are supported: the two-component Gamma mixture benchmark
(sum of two independent Gamma processes with a known equivalent model), and
CSV files of dated losses aggregated into a strictly increasing cumulative
log-loss series suitable for subordinator inference.
"""

import csv
import math
import re
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .exceptions import DataError, DomainError
from .paths import as_generator

__all__ = [
    "Observations",
    "TwoGammaTruth",
    "synth_two_gamma",
    "IngestReport",
    "ingest_losses",
    "ingest_losses_with_report",
    "aggregate_losses",
    "read_observations_csv",
    "write_observations_csv",
]


@dataclass(frozen=True)
class Observations:
    """Discrete observations of a strictly increasing process started at (0, 0).

    Increments are the authoritative record: an infinite-activity process can
    produce steps far below the float resolution of the running value, so
    observations built by the simulators carry their exact increments and the
    cumulative ``values`` array is a rendering.  Observations read from a
    value series get their increments by differencing, and those must all be
    strictly positive.
    """

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1).copy()
        values = np.asarray(self.values, dtype=float).reshape(-1).copy()
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.size != values.size:
            raise DataError("times and values must have equal length")
        if times.size < 2:
            raise DataError("need at least two observations")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise DataError("observations must be finite")
        if times[0] != 0.0 or values[0] != 0.0:
            raise DataError("observations must start at time 0 with value 0")
        if np.any(np.diff(times) <= 0):
            raise DataError("observation times must be strictly increasing")
        inc = np.diff(values) if self.increments is None else (
            np.asarray(self.increments, dtype=float).reshape(-1).copy())
        if inc.size != times.size - 1:
            raise DataError(f"need {times.size - 1} increments, got {inc.size}")
        if np.any(inc <= 0) or not np.all(np.isfinite(inc)):
            raise DataError(
                "observation values must be strictly increasing; an infinite-activity "
                "subordinator has no flat stretches. Aggregate the data over longer "
                "periods until every increment is positive."
            )
        if np.any(np.diff(values) < 0):
            raise DataError("observation values must be non-decreasing")
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @classmethod
    def from_increments(cls, times, increments) -> "Observations":
        inc = np.asarray(increments, dtype=float).reshape(-1)
        values = np.concatenate(([0.0], np.cumsum(inc)))
        return cls(times, values, inc)

    @property
    def n_increments(self) -> int:
        return self.times.size - 1


@dataclass(frozen=True)
class TwoGammaTruth:
    """Analytic description of a sum of two independent Gamma processes.

    The sum has jump density b1*exp(-a1*x)/x + b2*exp(-a2*x)/x, which equals
    ((b1+b2)/x)*exp(-alpha_bar*x - theta(x)) for the tilt rate alpha_bar =
    (b1*a1 + b2*a2)/(b1 + b2) and the exact perturbation returned by theta().
    With that tilt, theta vanishes quadratically at the origin.
    """

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    @property
    def alpha_bar(self) -> float:
        return (self.beta1 * self.alpha1 + self.beta2 * self.alpha2) / (self.beta1 + self.beta2)

    @property
    def beta_bar(self) -> float:
        return self.beta1 + self.beta2

    def theta(self, x):
        x = np.asarray(x, dtype=float)
        mix = (self.beta1 * np.exp(-self.alpha1 * x) + self.beta2 * np.exp(-self.alpha2 * x))
        return -np.log(mix / self.beta_bar) - self.alpha_bar * x

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        return (self.beta1 * np.exp(-self.alpha1 * x) + self.beta2 * np.exp(-self.alpha2 * x)) / x

    def mean_rate(self) -> float:
        """Expected displacement per unit time."""
        return self.beta1 / self.alpha1 + self.beta2 / self.alpha2


def synth_two_gamma(a1: float, b1: float, a2: float, b2: float,
                    T: float, n: int, seed) -> tuple[Observations, TwoGammaTruth]:
    """Simulate the sum of two independent Gamma processes at n equispaced times.

    Component j has tilt rate a_j and activity rate b_j; observations are the
    process values at i*T/n for i = 0..n.  Returns the data together with the
    analytic truth descriptor.
    """
    for name, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2), ("T", T)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be finite and > 0, got {v!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    dt = T / n
    inc = rng.gamma(shape=b1 * dt, scale=1.0 / a1, size=n)
    inc = inc + rng.gamma(shape=b2 * dt, scale=1.0 / a2, size=n)
    times = np.arange(n + 1) * dt
    return Observations.from_increments(times, inc), TwoGammaTruth(a1, b1, a2, b2)


@dataclass
class IngestReport:
    """What the aggregation pipeline did to the raw rows."""

    n_rows: int = 0
    n_rejected: int = 0
    rejected_lines: list = field(default_factory=list)
    n_windows: int = 0
    n_merged_windows: int = 0
    boundary_note: str = ""


_PERIOD_RE = re.compile(r"^(\d+)w$")


def _period_weeks(aggregation: str) -> int:
    key = aggregation.strip().lower()
    if key == "weekly":
        return 1
    if key == "biweekly":
        return 2
    m = _PERIOD_RE.match(key)
    if m and int(m.group(1)) >= 1:
        return int(m.group(1))
    raise DataError(f"unsupported aggregation {aggregation!r}; use 'weekly', 'biweekly', or '<k>w'")


def _monday_of(d: date) -> date:
    return d - timedelta(days=d.weekday())


def aggregate_losses(rows, aggregation: str = "weekly") -> tuple[Observations, IngestReport]:
    """Aggregate (date, loss) rows into cumulative log-loss observations.

    Losses are log-transformed and summed within calendar windows of whole
    weeks anchored on Monday.  A window with no contribution is merged
    forward into the next non-empty one, so every emitted increment is
    strictly positive.  Times are measured in weeks.  Rows with loss < 1 are
    rejected (their log would be non-positive) and reported, not fatal.
    """
    weeks = _period_weeks(aggregation)
    report = IngestReport()
    by_window: dict[int, float] = {}
    anchor = None
    first_day = None
    last_day = None
    for line_no, day, loss in rows:
        report.n_rows += 1
        if loss < 1.0:
            report.n_rejected += 1
            report.rejected_lines.append(line_no)
            continue
        if anchor is None:
            anchor = _monday_of(day)
            first_day = last_day = day
        first_day = min(first_day, day)
        last_day = max(last_day, day)
        # floor division keeps Monday-anchored windows for dates before the anchor
        idx = ((day - anchor).days // 7) // weeks
        by_window[idx] = by_window.get(idx, 0.0) + math.log(loss)
    if not by_window:
        raise DataError("no positive increments: every row was empty or rejected")

    lo = min(by_window)
    hi = max(by_window)
    times = [0.0]
    increments = []
    pending_weeks = 0
    pending_sum = 0.0
    for idx in range(lo, hi + 1):
        pending_weeks += weeks
        pending_sum += by_window.get(idx, 0.0)
        if pending_sum > 0.0:
            times.append(times[-1] + pending_weeks)
            increments.append(pending_sum)
            if pending_weeks > weeks:
                report.n_merged_windows += 1
            pending_weeks = 0
            pending_sum = 0.0
        # empty window: merge forward into the next one
    report.n_windows = len(increments)
    window_start = anchor + timedelta(weeks=lo * weeks)
    report.boundary_note = (
        f"boundary windows kept as-is: first window starts Monday {window_start.isoformat()}, "
        f"first loss on {first_day.isoformat()}, last loss on {last_day.isoformat()}"
    )
    return Observations.from_increments(np.asarray(times), np.asarray(increments)), report


def _parse_loss_rows(stream):
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["date", "loss"]:
        raise DataError("loss CSV must start with header 'date,loss'")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise DataError(f"line {line_no}: expected 'date,loss', got {row!r}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"line {line_no}: bad ISO date {row[0]!r}: {exc}") from None
        try:
            loss = float(row[1])
        except ValueError:
            raise DataError(f"line {line_no}: bad loss value {row[1]!r}") from None
        if not math.isfinite(loss):
            raise DataError(f"line {line_no}: loss must be finite, got {row[1]!r}")
        rows.append((line_no, day, loss))
    return rows


def ingest_losses(csv_path, aggregation: str = "weekly") -> Observations:
    """Read a (date, loss) CSV and aggregate it into Observations.

    See aggregate_losses for the windowing rules; use ingest_losses_with_report
    when the ingestion report is needed.
    """
    obs, _ = ingest_losses_with_report(csv_path, aggregation)
    return obs


def ingest_losses_with_report(csv_path, aggregation: str = "weekly"):
    """Read a (date, loss) CSV; return aggregate_losses' (Observations, IngestReport)."""
    with open(csv_path, "r", newline="") as fh:
        rows = _parse_loss_rows(fh)
    return aggregate_losses(rows, aggregation)


def read_observations_csv(path) -> Observations:
    """Read a 'time,value' CSV into Observations."""
    times = []
    values = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["time", "value"]:
            raise DataError("observations CSV must start with header 'time,value'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError):
                raise DataError(f"line {line_no}: expected 'time,value', got {row!r}") from None
    return Observations(np.asarray(times), np.asarray(values))


def write_observations_csv(obs: Observations, stream) -> None:
    stream.write("time,value\n")
    for t, v in zip(obs.times, obs.values):
        stream.write(f"{float(t)!r},{float(v)!r}\n")
