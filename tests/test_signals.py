import csv
import gzip
from pathlib import Path

import numpy as np
import pytest

from gatesynth.signals import (
    TIME_TOL, OutOfRangeError, Signal, UnknownVariableError, read_trace_csv, write_trace_csv,
)


def sig(times, vals, var="x"):
    return Signal(times=np.asarray(times, float),
                  values={var: np.asarray(vals, float)})


def per_row_write_trace_csv(signal, path):
    """The row-at-a-time trace writer the chunked one replaced, kept as the
    oracle for its bytes."""
    names = signal.variables
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + names)
        for i, t in enumerate(signal.times):
            w.writerow([repr(float(t))] + [repr(float(signal.values[v][i])) for v in names])


def awkward_signal(rows, nvars, names=('q"x', "a,b", "y", "z", "w")):
    """Irregular times and values over the float range, with inf, nan,
    -0.0 and subnormals, under names that need csv quoting."""
    rng = np.random.default_rng([rows, nvars])
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, rows - 1))])
    special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 2.5e-310, 1e16]
    names = list(names)[:nvars]
    values = {}
    for name in names:
        v = rng.normal(0.0, 1.0, rows) * 10.0 ** rng.integers(-300, 300, rows)
        at = rng.choice(rows, size=min(rows, len(special)), replace=False)
        v[at] = special[:at.size]
        values[name] = v
    return Signal(times=times, values=values)


def assert_same_bits(back, s):
    """``back`` has ``s``'s names, and its times and values bit for bit,
    so -0.0, NaN and subnormals must survive too."""
    assert back.variables == s.variables
    for got, want in zip([back.times, *back.values.values()], [s.times, *s.values.values()]):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSampleAt:
    def test_midpoint(self):
        s = sig([0, 1], [0.0, 1.0])
        assert s.sample_at("x", 0.5) == pytest.approx(0.5)

    def test_single_sample(self):
        s = sig([0], [0.3])
        assert s.sample_at("x", 0.0) == pytest.approx(0.3)

    def test_slope_two(self):
        s = sig([0, 2], [0.0, 4.0])
        assert s.sample_at("x", 1.5) == pytest.approx(3.0)

    def test_exact_at_samples(self):
        times = np.linspace(0, 3, 13)
        vals = np.sin(times)
        s = sig(times, vals)
        for t, v in zip(times, vals):
            assert s.sample_at("x", t) == pytest.approx(v, abs=1e-12)

    def test_unknown_variable(self):
        s = sig([0, 1], [0, 1])
        with pytest.raises(UnknownVariableError):
            s.sample_at("nope", 0.5)

    def test_out_of_range(self):
        s = sig([0, 1], [0, 1])
        with pytest.raises(OutOfRangeError):
            s.sample_at("x", 1.5)

    @pytest.mark.parametrize("end", [0, 1])
    def test_within_time_tol_of_the_trace_is_the_end_sample(self, end):
        # the sample index_of names; at the parent sample_at allowed 1e-12
        s = sig([0, 0.5, 1.0], [1, 2, 3])
        t = end + (5e-10 if end else -5e-10)
        assert s.sample_at("x", t) == s.values["x"][s.index_of(t)] == (3 if end else 1)
        with pytest.raises(OutOfRangeError):
            s.sample_at("x", end + (2 * TIME_TOL if end else -2 * TIME_TOL))

    def test_monotone_between_samples(self):
        s = sig([0, 1], [0.2, 0.9])
        ts = np.linspace(0, 1, 50)
        ys = [s.sample_at("x", t) for t in ts]
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))


class TestInvariants:
    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            sig([1, 2], [0, 1])

    def test_first_time_within_time_tol_of_0(self):
        assert sig([5e-10, 1], [0, 1]).times[0] == 5e-10
        with pytest.raises(ValueError, match="first time point must be 0"):
            sig([2 * TIME_TOL, 1], [0, 1])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            sig([0, 2, 1], [0, 1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Signal(times=np.array([0.0, 1.0]), values={"x": np.array([1.0])})

    @pytest.mark.parametrize("times", [[], [[0.0, 0.1]]], ids=["empty", "2-d"])
    def test_times_must_be_nonempty_1d(self, times):
        with pytest.raises(ValueError, match="times must be a nonempty 1-d array"):
            Signal(times=times, values={"x": np.zeros(np.shape(times))})

    @pytest.mark.parametrize("times", [[np.nan], [np.nan, 1.0], [0.0, np.inf],
                                       [0.0, 1.0, np.nan], [-np.inf, 0.0]])
    def test_non_finite_end_rejected(self, times):
        # a NaN first time passed the first-time check, and with one sample
        # no step caught it; an inf last time passed the step check
        with pytest.raises(ValueError, match="times must be finite"):
            Signal(times=times, values={"x": np.zeros(len(times))})

    def test_non_finite_inner_time_rejected(self):
        for inner in (np.nan, np.inf):
            with pytest.raises(ValueError, match="strictly increasing"):
                sig([0.0, inner, 2.0], [0, 1, 2])

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            Signal(times=np.array([0.0]), values={})

    def test_compared_by_identity(self):
        # a field-by-field == would compare arrays, whose truth is ambiguous
        a, b = sig([0, 1], [0.2, 0.4]), sig([0, 1], [0.2, 0.4])
        assert a == a and a != b


class TestUniformity:
    def test_uniform_step(self):
        s = sig([0, 0.5, 1.0, 1.5], [1, 2, 3, 4])
        assert s.is_uniform()
        assert s.step == pytest.approx(0.5)

    def test_non_uniform(self):
        s = sig([0, 0.5, 2.0], [1, 2, 3])
        assert not s.is_uniform()
        with pytest.raises(ValueError):
            _ = s.step

    def test_step_is_fitted_from_the_ends(self):
        times = np.arange(200) * 0.01
        s = sig(times, np.zeros(200))
        assert s.step == (times[-1] - times[0]) / 199
        assert times.tolist() == (np.arange(200) * 0.01).tolist()  # not modified
        # an error in the second time is not carried down the trace
        times[1] += 0.4 * TIME_TOL
        s = sig(times, np.zeros(200))
        assert s.is_uniform() and s.step == (times[-1] - times[0]) / 199

    def test_positions_within_half_time_tol(self):
        # uniform when every t_k lies within TIME_TOL/2 of t_0 + k*step
        times = np.arange(6) * 0.1
        times[3] += 0.4 * TIME_TOL
        assert sig(times, np.zeros(6)).is_uniform()
        times[3] += 0.2 * TIME_TOL
        assert not sig(times, np.zeros(6)).is_uniform()

    def test_step_over_two_time_tol(self):
        assert not sig(np.arange(5) * 2 * TIME_TOL, np.zeros(5)).is_uniform()
        assert sig(np.arange(5) * 2.5 * TIME_TOL, np.zeros(5)).is_uniform()

    def test_tolerance_does_not_scale_with_the_step(self):
        # one sample 5e-9 late on a step of 10: F[0,30] picks it by time
        # but not by index, so the trace is not uniform
        wide = np.arange(6) * 10.0
        wide[3] += 5e-9
        assert not sig(wide, np.zeros(6)).is_uniform()

    def test_position_error_does_not_pile_up(self):
        # every step within 8e-11 of the first, but sample 25 lies 1e-9
        # past 25*step
        k = np.arange(51)
        times = k * 0.01 + np.minimum(k, 50 - k) * 4e-11
        assert not sig(times, np.zeros(51)).is_uniform()

    def test_single_sample(self):
        s = sig([0.0], [1.0])
        assert s.is_uniform()
        with pytest.raises(ValueError, match="no step"):
            _ = s.step

    def test_index_of(self):
        s = sig([0, 0.5, 1.0], [1, 2, 3])
        assert s.index_of(0.5) == 1
        with pytest.raises(OutOfRangeError):
            s.index_of(0.3)


class TestCsv:
    def test_round_trip(self, tmp_path):
        times = np.arange(5) * 0.25
        s = Signal(times=times, values={"xA": times * 2, "xB": 1 - times})
        write_trace_csv(s, tmp_path / "trace.csv")
        back = read_trace_csv(tmp_path / "trace.csv")
        assert back.variables == ["xA", "xB"]
        np.testing.assert_allclose(back.times, s.times)
        np.testing.assert_allclose(back.values["xB"], s.values["xB"])

    def test_header_required(self, tmp_path):
        (tmp_path / "trace.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(tmp_path / "trace.csv")

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        times = np.arange(200) * 0.01
        values = {"x": rng.random(200), "y": rng.normal(0, 1e-300, 200),
                  "z": np.array([np.inf, -np.inf, 5e-324, -0.0] * 50)}
        write_trace_csv(Signal(times=times, values=values), tmp_path / "trace.csv")
        back = read_trace_csv(tmp_path / "trace.csv")
        # compare bit patterns, so -0.0 and subnormals must survive too
        pairs = [(back.times, times)] + [(back.values[v], values[v]) for v in values]
        for got, want in pairs:
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # either side of each 1,024-row chunk edge
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("nvars", [1, 5])
    def test_bytes_match_per_row_writer(self, tmp_path, rows, nvars):
        s = awkward_signal(rows, nvars)
        oracle = tmp_path / "oracle.csv"
        per_row_write_trace_csv(s, oracle)
        assert oracle.read_bytes().count(b"\r\n") == rows + 1
        for dest in (str(tmp_path / "str.csv"), tmp_path / "path.csv"):
            write_trace_csv(s, dest)
            assert Path(dest).read_bytes() == oracle.read_bytes()

    def test_empty_name_rejected_before_writing(self, tmp_path):
        s = Signal(times=np.array([0.0, 1.0]), values={"x": [0.0, 1.0], "": [1.0, 0.0]})
        kept = tmp_path / "kept.csv"
        kept.write_text("old contents")
        for dest in (kept, tmp_path / "new.csv"):
            with pytest.raises(ValueError, match="empty variable name"):
                write_trace_csv(s, dest)
        assert kept.read_text() == "old contents"
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("text", [
        "t,x,x\n0,1,2\n",         # duplicate variable
        "t,x,\n0,1,2\n",          # empty variable name
        "t,x\n",                  # header only
        "t,x\n\n",                # header and a blank line
        "",                       # nothing at all
        "t,x\n0,1\n0.1,1,2\n",    # ragged row
        "t,x\n0,1\n0.1,one\n",    # non-numeric cell
        "t,x\n0,1,2\n",           # more columns than the header names
        "t,x\nnan,1.0\n",         # a NaN time, the only sample
        "t,x\n0,1\ninf,2\n",      # an infinite last time
        't,"x\n\n"\n',             # a header over three lines, no samples
    ])
    def test_malformed_rejected(self, tmp_path, text):
        (tmp_path / "trace.csv").write_text(text)
        with pytest.raises(ValueError):
            read_trace_csv(tmp_path / "trace.csv")

    @pytest.mark.parametrize("rows", [1, 2, 1500])
    @pytest.mark.parametrize("names", [
        ['q"x', "a,b", "y"],
        ["a\nb", "c\r\nd", "e\n\nf"],      # quoted names over several lines
        ["\r\n", "x"],
    ], ids=["quoted", "multiline", "only-newline"])
    def test_awkward_round_trip_is_bit_exact(self, tmp_path, rows, names):
        s = awkward_signal(rows, len(names), names)
        write_trace_csv(s, tmp_path / "trace.csv")
        assert_same_bits(read_trace_csv(tmp_path / "trace.csv"), s)

    def test_str_path_bytes_and_relative_path_read_the_same(self, tmp_path, monkeypatch):
        s = awkward_signal(50, 2, ["a\nb", "y"])
        write_trace_csv(s, tmp_path / "trace.csv")
        monkeypatch.chdir(tmp_path)
        for path in (str(tmp_path / "trace.csv"), tmp_path / "trace.csv", "trace.csv",
                     Path("trace.csv"), b"trace.csv"):
            assert_same_bits(read_trace_csv(path), s)

    def test_relative_path_that_looks_like_a_url_is_a_file(self, tmp_path, monkeypatch):
        # relative, numpy would take it for a URL; a port no one serves
        # keeps even that attempt on this host
        (tmp_path / "http:" / "localhost:1").mkdir(parents=True)
        (tmp_path / "http:" / "localhost:1" / "trace.csv").write_text("t,x\n0,1\n")
        monkeypatch.chdir(tmp_path)
        assert read_trace_csv("http://localhost:1/trace.csv").values["x"].tolist() == [1.0]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".csv.gz"])
    def test_compressed_suffix_refused(self, tmp_path, suffix):
        # numpy's opener would decompress a path by its suffix
        plain = tmp_path / f"trace{suffix}"
        plain.write_text("t,x\n0,1\n")
        with pytest.raises(ValueError, match="compressed-file suffix"):
            read_trace_csv(plain)

    def test_gzip_file_refused(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("t,x\n0,1\n")
        with pytest.raises(ValueError, match="compressed-file suffix"):
            read_trace_csv(str(path))

    def test_other_suffixes_read(self, tmp_path):
        # the rule is the suffix as spelt, numpy's own
        for name in ("trace.GZ", "trace.gzip", "trace.gz.csv", "trace"):
            (tmp_path / name).write_text("t,x\n0,1\n")
            assert read_trace_csv(tmp_path / name).values["x"].tolist() == [1.0]
