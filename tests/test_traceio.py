import json

import numpy as np
import pytest

from seisgof import TimeSeries, Unit
from seisgof.signal import Record3C, UnitError
from seisgof.traceio import meta_path_for, read_record, write_record

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

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ew,ns,ud\n0.0,1,2,3\n")
        with pytest.raises(ValueError):
            read_record(path)
