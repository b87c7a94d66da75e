import json
from fractions import Fraction

import pytest

from qapgas.cli import main
from qapgas.qap import brute_force_optimum, parse_qaplib


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.dat"
    main(["gen", "--n", "3", "--seed", "5", "--out", str(path)])
    return path


class TestGenShow:
    def test_gen_writes_parseable_instance(self, instance_file):
        inst = parse_qaplib(instance_file.read_text())
        assert inst.size_n == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_gen_file_parses_to_correctly_rounded_entries(self, tmp_path, seed):
        """Each entry is its token over its matrix's largest token, divided exactly and
        rounded once (a float division of 0.6 by 0.8 gives 0.7499999999999999)."""
        path = tmp_path / "inst.dat"
        main(["gen", "--n", "5", "--seed", str(seed), "--out", str(path)])
        tokens = [Fraction(tok) for tok in path.read_text().split()]
        inst = parse_qaplib(path.read_text())
        for mat, entries in ((inst.flow, tokens[1:26]), (inst.dist, tokens[26:])):
            top = max(entries)
            assert mat.ravel().tolist() == [float(v / top) for v in entries]

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        main(["gen", "--n", "4", "--seed", "9", "--out", str(a)])
        main(["gen", "--n", "4", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_show_prints_matrices(self, instance_file, capsys):
        assert main(["show", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "N=3" in out and "flow" in out

    def test_show_optimum(self, instance_file, capsys):
        main(["show", str(instance_file), "--optimum"])
        assert "optimum:" in capsys.readouterr().out


class TestFormulate:
    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_json_schema(self, instance_file, tmp_path, kind, capsys):
        out = tmp_path / "form.json"
        main(["formulate", "--kind", kind, "--in", str(instance_file), "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["kind"] == kind
        assert payload["n"] == (6 if kind == "hubo-hw" else 9)
        assert all(set(t) == {"vars", "coeff"} for t in payload["terms"])
        assert ("code_table" in payload) == (kind == "hubo-hw")
        if kind == "hubo-hw":
            assert payload["code_table"] == [[1, 1], [1, 0], [0, 1]]


class TestGates:
    def test_csv_fields(self, tmp_path, capsys):
        main(["gates", "--kind", "hubo-hw", "--n", "3", "--model", "rz"])
        out = capsys.readouterr().out
        assert "cnot_total," in out
        assert "c2r_gates," in out

    def test_model_r_differs(self, capsys):
        main(["gates", "--kind", "qubo-h", "--n", "2", "--model", "r"])
        r_out = capsys.readouterr().out
        main(["gates", "--kind", "qubo-h", "--n", "2", "--model", "rz"])
        rz_out = capsys.readouterr().out
        assert r_out != rz_out


class TestSimulate:
    def test_readout_table(self, instance_file, capsys):
        main(["simulate", "--kind", "hubo-hw", "--in", str(instance_file)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x_bits,value_register,probability"
        assert len(lines) == 1 + 2**6

    @pytest.mark.parametrize("kind", ["hubo-hw", "qubo-d"])
    def test_table_matches_the_per_column_formula(self, instance_file, capsys, kind):
        """Each kept column's total and most likely register value, as a
        per-column loop over the simulated state computes them."""
        import numpy as np

        from qapgas.circuits import build_state_prep, width_for_range
        from qapgas.encodings import encode
        from qapgas.sim import StateVector, signed_value
        from qapgas.space import value_bounds

        main(["simulate", "--kind", kind, "--in", str(instance_file)])
        table = capsys.readouterr().out
        form = encode(parse_qaplib(instance_file.read_text()), kind)
        m = width_for_range(*value_bounds(form))
        sv = StateVector(form.num_vars + m).apply_all(build_state_prep(form, m).gates)
        probs = sv.probabilities().reshape(1 << m, 1 << form.num_vars)
        lines = ["x_bits,value_register,probability"]
        for x in range(1 << form.num_vars):
            column = probs[:, x]
            if column.sum() < 1e-12:
                continue
            value = signed_value(int(np.argmax(column)), m)
            lines.append(f"{format(x, f'0{form.num_vars}b')[::-1]},{value},{column.sum():.6g}")
        assert table == "\n".join(lines) + "\n"
        # qubo-d keeps the Dicke support alone, one set bit per row: 3^3 states.
        assert len(lines) == 1 + (3**3 if kind == "qubo-d" else 2**6)

    @pytest.fixture
    def n2_file(self, tmp_path):
        """random_instance(2, 1): qubo-d values E in {2, 8} on the Dicke support."""
        path = tmp_path / "n2.dat"
        main(["gen", "--n", "2", "--seed", "1", "--out", str(path)])
        return path

    def test_threshold_widens_the_register(self, n2_file, capsys):
        """E - y = 18 needs 6 value qubits; sized without y, it wrapped to -14."""
        main(["simulate", "--kind", "qubo-d", "--in", str(n2_file), "--y=-10"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert sorted(int(line.split(",")[1]) for line in lines) == [12, 12, 18, 18]

    def test_explicit_register_too_narrow_for_threshold_exits(self, n2_file):
        with pytest.raises(SystemExit, match="at least 6 value qubits"):
            main(["simulate", "--kind", "qubo-d", "--in", str(n2_file), "--y=-10", "--m", "5"])

    def test_register_beyond_the_statevector_cap_exits(self, tmp_path):
        """random_instance(4, 1) as qubo-h needs 16 variable and 12 value qubits."""
        path = tmp_path / "n4.dat"
        main(["gen", "--n", "4", "--seed", "1", "--out", str(path)])
        with pytest.raises(SystemExit, match="qap simulate: 16 variable and 12 value qubits exceed "
                                             "the 26-qubit statevector cap"):
            main(["simulate", "--kind", "qubo-h", "--in", str(path)])


class TestGasCommand:
    def test_runs_csv(self, instance_file, tmp_path):
        out = tmp_path / "runs.csv"
        main([
            "gas", "--kind", "qubo-d", "--in", str(instance_file),
            "--runs", "5", "--seed", "3", "--csv", str(out),
        ])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "run_id,queries,queries_with_init,iterations,found_value"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[2]) == int(first[1]) + 1

    def test_exact_backend_reaches_optimum(self, instance_file, tmp_path):
        out = tmp_path / "runs.csv"
        main([
            "gas", "--kind", "hubo-hw", "--in", str(instance_file), "--backend", "exact",
            "--scale", "100", "--runs", "3", "--seed", "4", "--csv", str(out),
        ])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "run_id,queries,queries_with_init,iterations,found_value"
        assert len(lines) == 4
        _, best = brute_force_optimum(parse_qaplib(instance_file.read_text()))
        for line in lines[1:]:
            assert float(line.split(",")[4]) == pytest.approx(best, rel=1e-8)

    def test_exact_backend_at_default_scale_matches_emulated(self, instance_file, capsys):
        """Without --scale the value register is exact, so both backends print the same runs."""
        args = ["gas", "--kind", "hubo-hw", "--in", str(instance_file), "--runs", "5", "--seed", "4"]
        main(args)
        emulated = capsys.readouterr().out
        main([*args, "--backend", "exact"])
        assert capsys.readouterr().out == emulated

    def test_stall_termination(self, instance_file, capsys):
        main([
            "gas", "--kind", "hubo-hw", "--in", str(instance_file),
            "--runs", "2", "--stall", "10",
        ])
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    # The CSV text of each backend and termination on the fixture instance, recorded while
    # run_gas still re-derived its draw range from a float k on every iteration.
    PINNED_CSV = {
        "emulated": (
            ["--kind", "qubo-d", "--runs", "5", "--seed", "3"],
            "run_id,queries,queries_with_init,iterations,found_value\n"
            "0,16,17,12,1.4375\n1,14,15,9,1.4375\n2,10,11,8,1.4375\n3,2,3,2,1.4375\n4,29,30,22,1.4375\n",
        ),
        "exact": (
            ["--kind", "hubo-hw", "--backend", "exact", "--scale", "100", "--runs", "3", "--seed", "4"],
            "run_id,queries,queries_with_init,iterations,found_value\n"
            "0,34,35,18,1.4375\n1,22,23,17,1.4375\n2,7,8,5,1.4375\n",
        ),
        "stall": (
            ["--kind", "hubo-hw", "--runs", "2", "--stall", "10"],
            "run_id,queries,queries_with_init,iterations,found_value\n"
            "0,23,24,16,1.4375\n1,44,45,24,1.4375\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_CSV))
    def test_csv_text_is_pinned(self, instance_file, capsys, case):
        args, text = self.PINNED_CSV[case]
        main(["gas", "--in", str(instance_file), *args])
        assert capsys.readouterr().out == text


class TestMetricsCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "metrics.csv"
        main(["metrics", "--n-min", "2", "--n-max", "5", "--csv", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 3

    def test_fig_compat_changes_hubo_width(self, capsys):
        main(["metrics", "--n-min", "8", "--n-max", "8", "--kinds", "hubo-hw"])
        normal = capsys.readouterr().out
        main(["metrics", "--n-min", "8", "--n-max", "8", "--kinds", "hubo-hw", "--fig4-compat"])
        compat = capsys.readouterr().out
        assert normal != compat
