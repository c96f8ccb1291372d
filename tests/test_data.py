"""Synthetic mixture data and loss-series ingestion."""

import io
import math
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import integrate

from gammasub import DataError, Observations, TwoGammaTruth, synth_two_gamma
from gammasub.data import (
    aggregate_losses,
    ingest_losses,
    read_observations_csv,
    write_observations_csv,
)

PAPER_PARAMS = dict(a1=2.0, b1=0.4, a2=0.2, b2=0.04)


class TestObservations:
    def test_requires_origin(self):
        with pytest.raises(DataError):
            Observations([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(DataError):
            Observations([0.0, 1.0], [0.5, 1.0])

    def test_requires_strictly_increasing_values(self):
        with pytest.raises(DataError) as err:
            Observations([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert "aggregate" in str(err.value).lower()

    def test_increments(self):
        obs = Observations([0.0, 1.0, 3.0], [0.0, 0.5, 2.0])
        assert obs.increments == pytest.approx([0.5, 1.5])
        assert obs.n_increments == 2

    def test_values_are_the_running_sums_of_given_increments(self):
        with pytest.raises(DataError, match="running sums"):
            Observations([0, 1, 2], [0, 1, 2], [5, 7])
        # from_increments' values are the running sums; one ulp off them is refused
        obs = Observations.from_increments([0.0, 1.0, 2.0], [0.1, 0.2])
        assert obs.values.tolist() == [0.0, 0.1, 0.1 + 0.2] != [0.0, 0.1, 0.3]
        with pytest.raises(DataError, match="running sums"):
            Observations(obs.times, [0.0, 0.1, 0.3], [0.1, 0.2])


class TestTwoGammaTruth:
    def test_alpha_bar_value(self):
        truth = TwoGammaTruth(2.0, 0.4, 0.2, 0.04)
        assert truth.alpha_bar == pytest.approx(1.8363636363636364, rel=1e-12)
        assert truth.beta_bar == pytest.approx(0.44)

    def test_theta_vanishes_quadratically_at_origin(self):
        truth = TwoGammaTruth(2.0, 0.4, 0.2, 0.04)
        assert abs(truth.theta(1e-4)) < 1e-6
        # quadratic decay: quartering x divides theta by about 16
        ratio = truth.theta(4e-3) / truth.theta(1e-3)
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_mixture_density_identity(self):
        # (beta_bar/x) * exp(-alpha_bar*x - theta(x)) reproduces the mixture
        truth = TwoGammaTruth(2.0, 0.4, 0.2, 0.04)
        for x in (0.5, 1.0, 5.0):
            lhs = truth.beta_bar / x * math.exp(-truth.alpha_bar * x - truth.theta(x))
            rhs = 0.4 * math.exp(-2.0 * x) / x + 0.04 * math.exp(-0.2 * x) / x
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert truth.levy_density(x) == pytest.approx(rhs, rel=1e-12)

    def test_two_exponential_mixture(self):
        # closed form for the sum of two Gamma components
        a1, b1, a2, b2 = 2.0, 0.4, 0.2, 0.04
        expected = b1 / a1 * (1 - math.exp(-a1)) + b2 / a2 * (1 - math.exp(-a2))
        truth = TwoGammaTruth(a1, b1, a2, b2)
        ref, _ = integrate.quad(lambda x: x * truth.levy_density(x), 0, 1)
        assert ref == pytest.approx(expected, rel=1e-10)


class TestSynthTwoGamma:
    def test_shapes_and_grid(self):
        obs, truth = synth_two_gamma(T=10.0, n=40, seed=1, **PAPER_PARAMS)
        assert obs.times.size == 41
        assert obs.times[-1] == pytest.approx(10.0)
        assert np.all(np.diff(obs.values) > 0)

    def test_deterministic(self):
        a, _ = synth_two_gamma(T=5.0, n=10, seed=9, **PAPER_PARAMS)
        b, _ = synth_two_gamma(T=5.0, n=10, seed=9, **PAPER_PARAMS)
        assert np.array_equal(a.values, b.values)

    def test_mean_growth_rate(self):
        # E X_t = (b1/a1 + b2/a2) * t, averaged over replicates
        reps, T = 400, 50.0
        finals = np.array([
            synth_two_gamma(T=T, n=5, seed=s, **PAPER_PARAMS)[0].values[-1]
            for s in range(reps)
        ])
        truth = TwoGammaTruth(2.0, 0.4, 0.2, 0.04)
        target = truth.mean_rate() * T
        se = finals.std() / math.sqrt(reps)
        assert abs(finals.mean() - target) < 3 * se


def rows_csv(text: str) -> io.StringIO:
    return io.StringIO(text)


def ingest_text(text: str, aggregation="weekly"):
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write(text)
        name = fh.name
    try:
        return ingest_losses(name, aggregation)
    finally:
        os.unlink(name)


class TestIngest:
    def test_single_week_sums_logs(self):
        # two losses e and e^2 in one Monday-Sunday week
        text = "date,loss\n2020-01-06,%r\n2020-01-08,%r\n" % (math.e, math.e ** 2)
        obs, report = ingest_text(text)
        assert obs.times == pytest.approx([0.0, 1.0])
        assert obs.values == pytest.approx([0.0, 3.0])
        assert report.n_windows == 1

    def test_empty_week_merges_forward(self):
        # week 1 has a loss, week 2 empty, week 3 has a loss: bi-weekly window
        text = ("date,loss\n"
                "2020-01-06,%r\n"
                "2020-01-20,%r\n") % (math.e, math.e)
        obs, report = ingest_text(text)
        assert obs.times == pytest.approx([0.0, 1.0, 3.0])
        assert obs.values == pytest.approx([0.0, 1.0, 2.0])
        assert report.n_merged_windows == 1

    def test_leading_loss_below_one_rejected_with_diagnostic(self):
        text = ("date,loss\n"
                "2020-01-06,0.5\n"
                "2020-01-07,%r\n") % (math.e,)
        obs, report = ingest_text(text)
        assert report.n_rejected == 1
        assert report.rejected_lines == [2]
        assert obs.values == pytest.approx([0.0, 1.0])

    def test_all_empty_errors(self):
        with pytest.raises(DataError) as err:
            ingest_text("date,loss\n2020-01-06,0.5\n")
        assert "no positive increments" in str(err.value)

    def test_losses_of_one_alone_name_the_cause(self):
        # log 1 = 0: no window is positive, and every row of loss 1 is dropped
        text = "date,loss\n2020-01-06,1\n2020-01-09,0.5\n2020-01-14,1.0\n"
        with pytest.raises(DataError, match=r"no positive increments: no row has a loss above 1 "
                                            r"\(rejected, loss < 1: lines \[3\]; dropped, loss 1, "
                                            r"whose log is 0: lines \[2, 4\]\)"):
            ingest_text(text)
        obs, report = ingest_text(text + "2020-01-20,%r\n" % math.e)
        assert obs.values.tolist() == [0.0, 1.0]
        assert (report.n_rejected, report.n_dropped) == (1, 0)

    def test_bad_rows_error_with_line_numbers(self):
        with pytest.raises(DataError) as err:
            ingest_text("date,loss\n2020-01-06,2.0\nnot-a-date,3.0\n")
        assert "line 3" in str(err.value)
        with pytest.raises(DataError) as err:
            ingest_text("date,loss\n2020-01-06,abc\n")
        assert "line 2" in str(err.value)

    def test_week_boundary_monday(self):
        # Sunday 2020-01-12 and Monday 2020-01-13 are different windows
        text = ("date,loss\n"
                "2020-01-12,%r\n"
                "2020-01-13,%r\n") % (math.e, math.e ** 2)
        obs, _ = ingest_text(text)
        assert obs.times == pytest.approx([0.0, 1.0, 2.0])
        assert obs.values == pytest.approx([0.0, 1.0, 3.0])

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(5)
        losses = np.exp(rng.uniform(0.1, 2.0, size=60))
        days = [f"2020-{1 + i // 28:02d}-{1 + (i * 3) % 28:02d}" for i in range(60)]
        text = "date,loss\n" + "".join(
            f"{d},{float(v)!r}\n" for d, v in zip(sorted(days), losses))
        obs, _ = ingest_text(text)
        assert obs.values[-1] == pytest.approx(np.log(losses).sum(), rel=1e-9)

    def test_unsupported_aggregation(self):
        with pytest.raises(DataError):
            ingest_text("date,loss\n2020-01-06,2.0\n", aggregation="monthly")

    @pytest.mark.parametrize("aggregation", ["weekly", "biweekly", "3w"])
    def test_windows_do_not_depend_on_row_order(self, aggregation):
        # one loss in each of weeks 0-3, 5, 6 and 9 from Monday 2020-01-06, on
        # varying weekdays, read in date order and with week 1's row first
        for seed in (8, 9):
            rng = np.random.default_rng(seed)
            rows = [(line_no, date(2020, 1, 6) + timedelta(weeks=week, days=int(rng.integers(7))),
                     float(rng.uniform(2.0, 50.0)))
                    for line_no, week in enumerate((0, 1, 2, 3, 5, 6, 9), start=2)]
            shuffled = [rows[1]] + [rows[i] for i in rng.permutation([0, 2, 3, 4, 5, 6])]
            ordered, _ = aggregate_losses(rows, aggregation)
            obs, report = aggregate_losses(shuffled, aggregation)
            assert obs.times.tolist() == ordered.times.tolist()
            # each window's sum is rounded once, whatever the order of its logs:
            # seed 9's 3w rows gave sums an ulp apart when added in row order
            assert obs.increments.tolist() == ordered.increments.tolist(), seed
            assert report.boundary_note.startswith(
                "boundary windows kept as-is: first window starts Monday 2020-01-06")

    def test_trailing_rows_of_loss_one_are_counted_as_dropped(self):
        # log 1 = 0: the rows of weeks 2 and 3 have no positive window to merge
        # into, so the series ends with week 0, and the report says so
        text = "date,loss\n2020-01-06,5\n2020-01-21,1\n2020-01-28,1\n"
        obs, report = ingest_text(text)
        assert obs.times.tolist() == [0.0, 1.0]
        assert obs.increments.tolist() == [math.log(5.0)]
        assert (report.n_rows, report.n_rejected, report.n_dropped) == (3, 0, 2)
        assert report.boundary_note.endswith(
            "last loss on 2020-01-28, series ends Sunday 2020-01-12")
        # a loss of 1 inside the series is kept in its window, and nothing is dropped
        obs, report = ingest_text(text + "2020-02-03,2\n")
        assert obs.times.tolist() == [0.0, 1.0, 5.0]
        assert report.n_dropped == 0 and report.n_merged_windows == 1
        assert report.boundary_note.endswith("series ends Sunday 2020-02-09")

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        # spreadsheet exports start a UTF-8 file with U+FEFF
        text = "date,loss\n2020-01-06,%r\n2020-01-14,%r\n" % (math.e, math.e ** 2)
        path = tmp_path / "losses.csv"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        obs, _ = ingest_losses(path)
        assert obs.increments.tolist() == ingest_text(text)[0].increments.tolist()

    def test_biweekly_windows(self):
        text = ("date,loss\n"
                "2020-01-06,%r\n"
                "2020-01-13,%r\n") % (math.e, math.e)
        obs, _ = ingest_text(text, aggregation="biweekly")
        assert obs.times == pytest.approx([0.0, 2.0])
        assert obs.values == pytest.approx([0.0, 2.0])


class TestObservationsCsv:
    def test_round_trip(self):
        obs = Observations([0.0, 1.0, 2.5], [0.0, 0.25, 1.75])
        buf = io.StringIO()
        write_observations_csv(obs, buf)
        buf.seek(0)
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
            fh.write(buf.getvalue())
            name = fh.name
        try:
            back = read_observations_csv(name)
        finally:
            os.unlink(name)
        assert np.array_equal(back.times, obs.times)
        assert np.array_equal(back.values, obs.values)

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes("\ufefftime,value\n0,0\n1,0.5\n".encode("utf-8"))
        assert read_observations_csv(path).values.tolist() == [0.0, 0.5]

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        # as the loss reader skips them
        path = tmp_path / "obs.csv"
        path.write_text("time,value\n0,0\n  \n1,0.5\n\t\n\n2,0.75\n")
        assert read_observations_csv(path).values.tolist() == [0.0, 0.5, 0.75]
