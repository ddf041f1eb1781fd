import json

import numpy as np
import pytest

from seisgof import TimeSeries, Unit
from seisgof.signal import Record3C, UnitError
from seisgof.traceio import (_read_rows, meta_path_for, read_record,
                              write_record)

from conftest import record_from_arrays


@pytest.fixture
def record():
    rng = np.random.default_rng(53)
    return Record3C(
        ew=TimeSeries(0.005, 0.0, rng.standard_normal(200), Unit.ACCELERATION),
        ns=TimeSeries(0.005, 0.0, rng.standard_normal(200), Unit.ACCELERATION),
        ud=TimeSeries(0.005, 0.0, rng.standard_normal(200), Unit.ACCELERATION),
        station_id="CRU1", epicentral_distance=15000.0)


class TestRoundTrip:
    def test_values_and_metadata_survive(self, tmp_path, record):
        path = write_record(record, tmp_path / "trace.csv")
        back = read_record(path)
        assert back.station_id == "CRU1"
        assert back.epicentral_distance == 15000.0
        assert back.unit is Unit.ACCELERATION
        for name, ts in record.components():
            assert np.array_equal(getattr(back, name).samples, ts.samples)
        assert back.ew.dt == record.ew.dt

    def test_rewrite_is_byte_identical(self, tmp_path, record):
        p1 = write_record(record, tmp_path / "a.csv")
        back = read_record(p1)
        p2 = write_record(back, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert (meta_path_for(p1).read_bytes()
                == meta_path_for(p2).read_bytes())

    def test_header_contract(self, tmp_path, record):
        path = write_record(record, tmp_path / "trace.csv")
        assert path.read_text().splitlines()[0] == "t,ew,ns,ud"

    def test_missing_sidecar_uses_defaults(self, tmp_path, record):
        path = write_record(record, tmp_path / "trace.csv")
        meta_path_for(path).unlink()
        back = read_record(path)
        assert back.station_id == ""
        assert back.epicentral_distance is None


def _fstring_record_csv(record, path):
    # The one-f-string-per-row writer the %-format one must match.
    t = record.ew.times.tolist()
    ew, ns, ud = (ts.samples.tolist() for _, ts in record.components())
    lines = ["t,ew,ns,ud"]
    for i in range(record.ew.n):
        lines.append(f"{t[i]!r},{ew[i]!r},{ns[i]!r},{ud[i]!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("t0, dt", [(0.0, 0.005), (0.1, 1.0 / 3.0),
                                    (-12.345, 0.04)])
def test_bytes_match_fstring_writer(tmp_path, t0, dt):
    rng = np.random.default_rng(61)
    ew = np.array([-0.0, 1e-05, 1e16, 5e-324, -2.2e-308, 0.1, 1.0, -3.0])
    ns = 10.0 ** rng.uniform(-320, 20, ew.size) * rng.choice([-1, 1], ew.size)
    ud = rng.standard_normal(ew.size)
    rec = Record3C(*(TimeSeries(dt, t0, x, Unit.ACCELERATION)
                     for x in (ew, ns, ud)))
    write_record(rec, tmp_path / "formatted.csv")
    _fstring_record_csv(rec, tmp_path / "reference.csv")
    assert ((tmp_path / "formatted.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


class TestValidation:
    def test_jitter_rejected(self, tmp_path):
        lines = ["t,ew,ns,ud"]
        t = 0.0
        for i in range(10):
            lines.append(f"{t!r},0.1,0.2,0.3")
            t += 0.01 if i != 5 else 0.0100001
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="jitter"):
            read_record(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,e,n,z\n0.0,1,2,3\n0.01,1,2,3\n")
        with pytest.raises(ValueError, match="t,ew,ns,ud"):
            read_record(path)

    def test_wrong_units_in_sidecar(self, tmp_path, record):
        path = write_record(record, tmp_path / "trace.csv")
        meta = json.loads(meta_path_for(path).read_text())
        meta["units"] = "cm/s2"
        meta_path_for(path).write_text(json.dumps(meta))
        with pytest.raises(UnitError):
            read_record(path)

    @pytest.mark.parametrize("body", ["[1]", "null", "\"units\""])
    def test_sidecar_that_is_not_an_object(self, tmp_path, record, body):
        path = write_record(record, tmp_path / "trace.csv")
        meta_path_for(path).write_text(body)
        with pytest.raises(ValueError, match=r"trace\.meta\.json: sidecar "
                                             r"must be a JSON object"):
            read_record(path)

    def test_non_acceleration_record_rejected(self, tmp_path):
        vel = record_from_arrays(np.ones(10), np.ones(10), np.ones(10),
                                 unit=Unit.VELOCITY)
        with pytest.raises(UnitError):
            write_record(vel, tmp_path / "trace.csv")

    @pytest.mark.parametrize("body, line", [
        ("t,ew,ns,ud\n0.0,1,2,3\nnan,4,5,6\n0.02,1,2,3\n", 3),
        ("t,ew,ns,ud\n0.0,1,2,3\n0.01,4,5,6\ninf,1,2,3\n", 4),
        ("t,ew,ns,ud\n\n0.0,1,2,3\n  \n0.01,4,-inf,6\n0.02,nan,2,3\n", 5),
        ("t,ew,ns,ud\n0.0,1,2,3\n0.01,4,1e400,6\n", 3)])
    def test_non_finite_field_names_the_file_and_line(self, tmp_path, body,
                                                      line):
        # A NaN time once read as a uniform grid (its jitter compares
        # false) and an Inf time as dt=inf.
        path = tmp_path / "trace.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=rf"trace\.csv: line {line} "
                                             rf"holds NaN or Inf"):
            read_record(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ew,ns,ud\n0.0,1,2,3\n")
        with pytest.raises(ValueError):
            read_record(path)


def _rows_as_parsed_before(path):
    # The row parser that read_record used before it converted every field
    # in one numpy pass: a Python float() per field and a list per row.
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:] if line.strip()], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4 or rows.shape[0] < 2:
        raise ValueError("expected at least 2 rows of t,ew,ns,ud")
    return rows


ROWS = "0.0,1.5,-2.0,3e-3\n0.01,0.25,5e-324,-0.0\n0.02,1,2,3\n"


class TestParserParity:
    # read_record parses as the per-row float() parser did: the same
    # accepted files give the same bits, and the same files are rejected,
    # now always with one ValueError that names the file. A NaN or Inf
    # field, which float() reads, is rejected too.
    @pytest.mark.parametrize("body", [
        pytest.param("t,ew,ns,ud\r\n" + ROWS.replace("\n", "\r\n"),
                     id="crlf"),
        pytest.param("t,ew,ns,ud\n\n" + ROWS.replace("\n", "\n\n"),
                     id="blank-lines"),
        pytest.param("t,ew,ns,ud\n \t\n" + ROWS + "   \n\t\n",
                     id="whitespace-only-lines"),
        pytest.param("t,ew,ns,ud\n" + ROWS.rstrip("\n"),
                     id="no-trailing-newline"),
        pytest.param("t,ew,ns,ud\n 0.0 , 1.5,2 ,3\t\n0.01,4,5,6\n",
                     id="padded-fields"),
        pytest.param("t,ew,ns,ud\n0.0,1_000,2,3\n0.01,4,1_0.5_0,6\n",
                     id="underscores"),
        pytest.param("t,ew,ns,ud\n0.0,nan,-inf,inf\n0.01,NaN,Infinity,"
                     "-nan\n0.02,1e400,-1e-400,1\n", id="nan-inf"),
        pytest.param("t,ew,ns,ud\n0.0,1,2,3\nnan,4,5,6\n0.02,1,2,3\n",
                     id="nan-time"),
        pytest.param("t,ew,ns,ud\n0.0,1,2,3\n0.01,4,5,6\ninf,1,2,3\n",
                     id="inf-last-time"),
        pytest.param("t,ew,ns,ud\n0.0,1,2\n0.01,4,5,6,7\n",
                     id="ragged-3-next-to-5"),
        pytest.param("t,ew,ns,ud\n0.0,1,2\n0.01,4,5\n0.02,7,8\n"
                     "0.03,1,2\n", id="three-fields"),
        pytest.param("t,ew,ns,ud\n0.0,1,2,3,4\n0.01,4,5,6,7\n",
                     id="five-fields"),
        pytest.param("t,ew,ns,ud\n0.0,1,2,3,\n0.01,4,5,6,\n",
                     id="trailing-comma"),
        pytest.param("t,ew,ns,ud\n" + ROWS + "# end of record\n",
                     id="comment-row"),
        pytest.param("t,ew,ns,ud\n0.0,1,#,3\n0.01,4,5,6\n",
                     id="hash-field"),
        pytest.param("t,ew,ns,ud\n0.0,1,,3\n0.01,4,5,6\n",
                     id="empty-field"),
        pytest.param("t,ew,ns,ud\n0.0,1,2,3\n", id="one-row"),
        pytest.param("t,ew,ns,ud\n\n  \n", id="no-rows"),
        pytest.param("", id="empty-file"),
    ])
    def test_same_values_and_outcome_as_the_float_parser(self, tmp_path,
                                                         body):
        path = tmp_path / "trace.csv"
        path.write_bytes(body.encode())
        try:
            before = _rows_as_parsed_before(path)
        except ValueError:
            with pytest.raises(ValueError, match="trace.csv: "):
                _read_rows(path)
            with pytest.raises(ValueError, match="trace.csv: "):
                read_record(path)
            return
        if not np.isfinite(before).all():
            with pytest.raises(ValueError, match="trace.csv: "):
                _read_rows(path)
            with pytest.raises(ValueError, match="trace.csv: "):
                read_record(path)
            return
        rows = _read_rows(path)
        assert rows.dtype == np.float64 and rows.shape == before.shape
        assert np.array_equal(rows.view(np.int64), before.view(np.int64))
        record = read_record(path)
        assert record.ew.t0 == rows[0, 0]
        for col, (_, ts) in enumerate(record.components(), start=1):
            assert np.array_equal(ts.samples.view(np.int64),
                                  rows[:, col].view(np.int64))
