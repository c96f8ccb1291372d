"""Chain records and the files a run writes: chain.csv and meta.json.

A ChainRecord is one retained sweep of run_mcmc.  write_chain_csv writes
records as chain.csv, one row per record in full double precision, and
read_chain_csv parses them back; MoveTally sums the move outcomes that
write_meta_json reports in meta.json beside the run's config echo.
"""

import json
import math
from dataclasses import dataclass, field

from .exceptions import DataError
from .model import ModelParams

__all__ = ["ChainRecord", "chain_csv_header", "write_chain_csv", "read_chain_csv", "MoveTally",
           "write_meta_json"]


@dataclass(slots=True)
class ChainRecord:
    """One sweep's parameters, its refresh's path acceptance rate and the accept
    flag and log ratio its move returned; the stage not run has None and NaN.
    path_unpinnable counts the refresh's proposal rows too small to pin, which
    it rejected; chain.csv does not hold it, so read_chain_csv gives 0.
    Fields may be shared with neighbouring records; all are immutable."""

    iteration: int
    alpha: float
    beta: float
    theta: tuple
    rho: tuple
    accept_path_rate: float
    accept_params: bool | None = None
    accept_beta: bool | None = None
    logr_params: float = math.nan
    logr_beta: float = math.nan
    path_unpinnable: int = 0

    def to_params(self, bin_edges) -> ModelParams:
        """The record's parameters as a ModelParams sharing the record's theta
        and rho tuples and an edges tuple, such as a ModelParams' bin_edges."""
        return ModelParams(self.alpha, self.beta, bin_edges, self.theta, self.rho)


def _fmt_opt_bool(v: bool | None) -> str:
    return "" if v is None else str(int(v))


def _parse_opt_bool(text: str) -> bool | None:
    if text not in ("", "0", "1"):
        raise ValueError(f"accept flag must be empty, 0 or 1, got {text!r}")
    return None if text == "" else text == "1"


def _fmt_opt_float(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def chain_csv_header(n_bins: int) -> str:
    cols = ["iteration", "alpha", "beta"]
    cols += [f"theta_{k}" for k in range(1, n_bins + 1)]
    cols += [f"rho_{k}" for k in range(1, n_bins + 1)]
    cols += ["accept_path_rate", "accept_params", "accept_beta",
             "logr_params", "logr_beta"]
    return ",".join(cols)


def write_chain_csv(records, stream, n_bins: int) -> None:
    """Serialize chain records; full double precision, one row per record.
    Floats are written as repr(float(v)), so a numpy scalar writes as a number."""
    stream.write(chain_csv_header(n_bins) + "\n")
    for r in records:
        row = [str(r.iteration), repr(float(r.alpha)), repr(float(r.beta))]
        row += [repr(float(v)) for v in r.theta]
        row += [repr(float(v)) for v in r.rho]
        row += [repr(float(r.accept_path_rate)), _fmt_opt_bool(r.accept_params),
                _fmt_opt_bool(r.accept_beta), _fmt_opt_float(r.logr_params),
                _fmt_opt_float(r.logr_beta)]
        stream.write(",".join(row) + "\n")


def read_chain_csv(stream) -> list[ChainRecord]:
    """Parse write_chain_csv's output.  Raises DataError for a header that
    write_chain_csv does not write, and, naming the line, for a row with the
    wrong number of fields or a malformed value: a parameter value or path
    rate must be finite, as every retained state's is.  A field whose text
    repeats the previous row's, or a path rate's any earlier row's, is that
    row's object."""
    header = stream.readline().strip().split(",")
    n_bins = len([c for c in header if c.startswith("theta_")])
    expected = chain_csv_header(n_bins)
    if header != expected.split(","):
        raise DataError(f"chain file must start with the header {expected!r}")
    records, rates, k = [], {}, 3 + 2 * n_bins
    # the previous row's fields and record; no text equals None, and the
    # first row shares only an empty theta/rho block
    seen, last = [None] * len(header), ChainRecord(0, 0.0, 0.0, (), (), 0.0)
    for line_no, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataError(f"chain line {line_no}: expected {len(header)} fields, "
                            f"got {len(parts)}")
        tail = parts[k:]
        try:
            iteration = int(parts[0])
            alpha = last.alpha if parts[1] == seen[1] else float(parts[1])
            beta = last.beta if parts[2] == seen[2] else float(parts[2])
            if parts[3:k] == seen[3:k]:
                theta, rho = last.theta, last.rho
            else:
                theta = tuple(map(float, parts[3:3 + n_bins]))
                rho = tuple(map(float, parts[3 + n_bins:k]))
            rate = rates.get(tail[0])
            if rate is None:
                rate = rates[tail[0]] = float(tail[0])
            r = ChainRecord(
                iteration, alpha, beta, theta, rho, rate,
                accept_params=_parse_opt_bool(tail[1]),
                accept_beta=_parse_opt_bool(tail[2]),
                logr_params=math.nan if tail[3] == "" else float(tail[3]),
                logr_beta=math.nan if tail[4] == "" else float(tail[4]),
            )
        except ValueError as exc:
            raise DataError(f"chain line {line_no}: {exc}") from None
        if not all(map(math.isfinite, (r.alpha, r.beta, *r.theta, *r.rho, r.accept_path_rate))):
            raise DataError(f"chain line {line_no}: alpha, beta, theta, rho and "
                            "accept_path_rate must be finite")
        records.append(r)
        seen, last = parts, r
    return records


@dataclass
class MoveTally:
    """Move outcomes summed over sweeps: what meta.json's acceptance reports.

    params and beta count, for their move, the sweeps that attempted it,
    those that accepted, and those whose ratio was -inf: rejected before a
    ratio was formed (outside the model's domain or the prior's support,
    or, for the beta move, a collapsed segment).  add reads the accept and
    logr fields a ChainRecord has, and path_unpinnable sums its count of
    refresh proposals too small to pin.  n_segments and n_active, the
    chain's segment count and active_segments' count, give the path rate of
    the active rows alone; a tally not given them reports that rate as None.
    """

    n_segments: int = 0
    n_active: int = 0
    sweeps: int = 0
    path_rate_sum: float = 0.0
    path_unpinnable: int = 0
    params: list = field(default_factory=lambda: [0, 0, 0])  # attempted, accepted, -inf
    beta: list = field(default_factory=lambda: [0, 0, 0])

    def add(self, r: ChainRecord) -> None:
        self.sweeps += 1
        self.path_rate_sum += r.accept_path_rate
        self.path_unpinnable += r.path_unpinnable
        for counts, flag, logr in ((self.params, r.accept_params, r.logr_params),
                                   (self.beta, r.accept_beta, r.logr_beta)):
            if flag is not None:
                counts[0] += 1
                counts[1] += flag
                counts[2] += logr == -math.inf

    @property
    def path_mean_rate(self) -> float | None:
        return self.path_rate_sum / self.sweeps if self.sweeps else None

    @property
    def path_active_rate(self) -> float | None:
        """Mean path acceptance of the active rows: inert rows are always
        accepted (see refresh_segments), so a sweep's n_segments (1 - rate)
        rejected rows are all active ones.  None without an active row."""
        if not (self.n_active and self.sweeps):
            return None
        return 1.0 - self.n_segments * (1.0 - self.path_mean_rate) / self.n_active

    def acceptance(self) -> dict:
        def rate(counts):
            return counts[1] / counts[0] if counts[0] else None

        return {"path_refresh_mean_rate": self.path_mean_rate,
                "path_refresh_active_rate": self.path_active_rate,
                "path_refresh_unpinnable": self.path_unpinnable,
                "params_rate": rate(self.params), "beta_rate": rate(self.beta),
                "params_domain_rejects": self.params[2], "beta_domain_rejects": self.beta[2]}


def write_meta_json(stream, *, config_echo: dict, records: list[ChainRecord],
                    tally: MoveTally | None = None, extra: dict | None = None) -> None:
    """Write the run manifest: config echo plus acceptance-rate summaries.

    The rates and domain-reject counts are tally's (see MoveTally): `gammasub
    fit` tallies every sweep after burn-in, so that thinning drops no move,
    and passes the burn-in sweeps' own tally in extra, as burn_in_acceptance.
    Without a tally they are the retained records' own, which are those
    sweeps when nothing was thinned out.
    """
    if tally is None:
        tally = MoveTally()
        for r in records:
            tally.add(r)
    meta = {"config": config_echo, "n_records": len(records), "acceptance": tally.acceptance()}
    if extra:
        meta.update(extra)
    json.dump(meta, stream, indent=2, sort_keys=True)
    stream.write("\n")
