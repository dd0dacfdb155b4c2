import io

import numpy as np
import pytest

from gatesynth.signals import (
    ConstantStimulus, OutOfRangeError, Signal, UnknownVariableError,
    read_trace_csv, write_trace_csv,
)


def sig(times, vals, var="x"):
    return Signal(times=np.asarray(times, float),
                  values={var: np.asarray(vals, float)})


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

    def test_monotone_between_samples(self):
        s = sig([0, 1], [0.2, 0.9])
        ts = np.linspace(0, 1, 50)
        ys = [s.sample_at("x", t) for t in ts]
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))


class TestInvariants:
    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            sig([1, 2], [0, 1])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            sig([0, 2, 1], [0, 1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Signal(times=np.array([0.0, 1.0]), values={"x": np.array([1.0])})

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            Signal(times=np.array([0.0]), values={})


class TestFromConstant:
    def test_stimulus_validation(self):
        with pytest.raises(ValueError):
            ConstantStimulus(-0.1, 1.0)
        with pytest.raises(ValueError):
            ConstantStimulus(0.5, 0.0)


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

    def test_index_of(self):
        s = sig([0, 0.5, 1.0], [1, 2, 3])
        assert s.index_of(0.5) == 1
        with pytest.raises(OutOfRangeError):
            s.index_of(0.3)


class TestCsv:
    def test_round_trip(self):
        times = np.arange(5) * 0.25
        s = Signal(times=times, values={"xA": times * 2, "xB": 1 - times})
        buf = io.StringIO()
        write_trace_csv(s, buf)
        buf.seek(0)
        back = read_trace_csv(buf)
        assert back.variables == ["xA", "xB"]
        np.testing.assert_allclose(back.times, s.times)
        np.testing.assert_allclose(back.values["xB"], s.values["xB"])

    def test_header_required(self):
        with pytest.raises(ValueError):
            read_trace_csv(io.StringIO("a,b\n1,2\n"))

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        times = np.arange(200) * 0.01
        values = {"x": rng.random(200), "y": rng.normal(0, 1e-300, 200),
                  "z": np.array([np.inf, -np.inf, 5e-324, -0.0] * 50)}
        buf = io.StringIO()
        write_trace_csv(Signal(times=times, values=values), buf)
        buf.seek(0)
        back = read_trace_csv(buf)
        # compare bit patterns, so -0.0 and subnormals must survive too
        pairs = [(back.times, times)] + [(back.values[v], values[v]) for v in values]
        for got, want in pairs:
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("text", [
        "t,x,x\n0,1,2\n",         # duplicate variable
        "t,x,\n0,1,2\n",          # empty variable name
        "t,x\n",                  # header only
        "t,x\n\n",                # header and a blank line
        "",                       # nothing at all
        "t,x\n0,1\n0.1,1,2\n",    # ragged row
        "t,x\n0,1\n0.1,one\n",    # non-numeric cell
        "t,x\n0,1,2\n",           # more columns than the header names
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            read_trace_csv(io.StringIO(text))
