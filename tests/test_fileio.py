import numpy as np
import pytest

from modnudge import fileio
from modnudge.condlab import SweepRow
from modnudge.predictability import HorizonReport


class TestCsvTables:
    def test_horizon_csv(self, tmp_path):
        rep = HorizonReport(lam=0.5, doubling=np.log(2) / 0.5,
                            doubling_label="doubling-time", epsilon=0.1,
                            epsilon_horizon=3.0, window=(10.0, 15.0))
        path = tmp_path / "h.csv"
        fileio.write_horizon_csv(path, [("chi-0", rep)])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(fileio.HORIZON_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "chi-0"
        assert float(cells[3]) == 0.1
        assert cells[6] == "doubling-time"

    def test_condlab_csv(self, tmp_path):
        row = SweepRow(fine_n=64, coarse_m=8, coarse_kind="nested-linear",
                       k_chi=10.0, cond=32.5, cond_ratio=2.95, deviation=1e-9)
        path = tmp_path / "c.csv"
        fileio.write_condlab_csv(path, [row])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(fileio.CONDLAB_COLUMNS)
        assert lines[1].split(",")[2] == "nested-linear"

    def test_convergence_csv_groups_by_scheme(self, tmp_path):
        tables = {
            "2a-explicit": [(0.25, 1e-2, float("nan")), (0.125, 5e-3, 1.0)],
            "2b": [(0.25, 2e-2, float("nan"))],
        }
        path = tmp_path / "conv.csv"
        fileio.write_convergence_csv(path, tables)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "2a-explicit"
        assert lines[3].split(",")[0] == "2b"

    def test_plot_xy(self, tmp_path):
        path = tmp_path / "curve.dat"
        fileio.write_plot_xy(path, [0.0, 1.0], [2.0, 3.0], comment="err vs t")
        lines = path.read_text().splitlines()
        assert lines[0] == "# err vs t"
        assert lines[1] == "0 2"

    def test_plot_xy_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_plot_xy(tmp_path / "x.dat", [0.0, 1.0], [2.0])

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [[64, 0.1, 1.2345678901234567e-5, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0]]
        fileio.write_csv(a, fileio.LEDGER_COLUMNS, rows)
        fileio.write_csv(b, fileio.LEDGER_COLUMNS, rows)
        assert a.read_bytes() == b.read_bytes()
