import math
import os

import numpy as np
import pytest

import oqsim.cli as cli
from oqsim.channels import KrausChannel, PAULI_X, save_channel
from oqsim.circuit import (
    MemorySpec,
    build_markovian_step,
    build_nonmarkovian_step,
    parse_circuit,
    same_circuit,
)
from oqsim.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_angle,
    parse_config,
    parse_initial,
    run_experiment,
)
from oqsim.engine import projector_observable

from conftest import dense_trajectory


class TestParseAngle:
    @pytest.mark.parametrize("text,want", [
        ("pi/10", math.pi / 10),
        ("2pi/3", 2 * math.pi / 3),
        ("5pi/6", 5 * math.pi / 6),
        ("pi", math.pi),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.25", 0.25),
        ("1.5pi/2", 1.5 * math.pi / 2),
        ("0", 0.0),
    ])
    def test_forms(self, text, want):
        assert parse_angle(text) == pytest.approx(want, abs=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_angle("two pies")


class TestParseInitial:
    def test_named(self):
        rho = parse_initial("|+>")
        assert abs(rho.matrix[0, 1] - 0.5) < 1e-12

    def test_matrix_rows(self):
        rho = parse_initial("0.5,0.5;0.5,0.5")
        assert abs(rho.matrix[1, 0] - 0.5) < 1e-12

    def test_unknown(self):
        with pytest.raises(ConfigError):
            parse_initial("|2>")


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = amplitude-damping\nmode = markovian\ntheta = pi/10\nsteps = 20\n"
        )
        cfg = parse_config(path)
        assert cfg.modes == ("markovian",)
        assert cfg.steps == 20
        assert cfg.observables == ("p1",)
        assert abs(cfg.initial.matrix[1, 1] - 1.0) < 1e-12  # defaults to |1>

    def test_sections_and_comments(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\n"
            "channel = dephasing  # kind\n"
            "mode = markovian\n"
            "theta = pi/5\n"
            "[outputs]\n"
            "csv = out.csv\n"
        )
        cfg = parse_config(path)
        assert cfg.csv == "out.csv"
        assert cfg.observables == ("p+",)
        assert cfg.steps == 100  # dephasing default

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("channel = dephasing\nmode = markovian\nthetaa = pi/5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "thetaa" in str(err.value) and ":3:" in str(err.value)

    def test_thetas_length_mismatch_names_field(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = dephasing\nmode = non-markovian\nk = 3\nthetas = pi/5, pi/4\n"
        )
        with pytest.raises(ConfigError, match="thetas"):
            parse_config(path)

    def test_preset_expansion(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = fig6\n")
        cfg = parse_config(path)
        assert cfg.channel == "amplitude-damping"
        assert cfg.modes == ("markovian", "non-markovian")
        assert cfg.steps == 50
        assert cfg.theta == pytest.approx(math.pi / 10)
        assert cfg.thetas == pytest.approx(
            (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_sequential_requires_pauli_or_custom(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("channel = dephasing\nmode = sequential\ntheta = pi/5\n")
        with pytest.raises(ConfigError, match="sequential"):
            parse_config(path)

    def test_nonmarkovian_requires_k_at_least_two(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = dephasing\nmode = non-markovian\nk = 1\nthetas = pi/5\n"
        )
        with pytest.raises(ConfigError, match="k >= 2"):
            parse_config(path)


def run_main_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


class TestMainRuns:
    def test_fig6_writes_two_csvs(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        assert code == 0
        mark = (tmp_path / "fig6_markovian.csv").read_text().splitlines()
        nonm = (tmp_path / "fig6_nonmarkovian.csv").read_text().splitlines()
        assert mark[0] == "step,observable,value,trace,purity"
        assert len(mark) == 52 and len(nonm) == 52

        def series(lines):
            return [float(row.split(",")[2]) for row in lines[1:]]

        m, n = series(mark), series(nonm)
        assert all(b <= a + 1e-9 for a, b in zip(m, m[1:]))
        assert any(b > a + 1e-9 for a, b in zip(n, n[1:]))

    def test_fig7_limits(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig7"])
        assert code == 0
        for arm in ("markovian", "nonmarkovian"):
            rows = (tmp_path / f"fig7_{arm}.csv").read_text().splitlines()[1:]
            final = float(rows[-1].split(",")[2])
            assert abs(final - 0.5) <= 0.05

    def test_fig8_ordering(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig8"])
        assert code == 0

        def last(arm):
            rows = (tmp_path / f"fig8_{arm}.csv").read_text().splitlines()[1:]
            return float(rows[-1].split(",")[2])

        assert last("nonmarkovian") > last("markovian")

    def test_csv_deterministic(self, tmp_path, monkeypatch):
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", "a.csv"])
        first = (tmp_path / "a_markovian.csv").read_bytes()
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", "a.csv"])
        assert (tmp_path / "a_markovian.csv").read_bytes() == first

    def test_traces_within_tolerance(self, tmp_path, monkeypatch):
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        for arm in ("markovian", "nonmarkovian"):
            rows = (tmp_path / f"fig6_{arm}.csv").read_text().splitlines()[1:]
            for row in rows:
                assert abs(float(row.split(",")[3]) - 1.0) <= 1e-9

    def test_dump_circuit_round_trip(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "amplitude-damping",
                "--mode", "markovian",
                "--theta", "pi/10",
                "--steps", "5",
                "--dump-circuit", "step.circuit",
            ],
        )
        assert code == 0
        text = (tmp_path / "step.circuit").read_text()
        back = parse_circuit(text)
        assert same_circuit(back, build_markovian_step("amplitude-damping", math.pi / 10))

    def test_svg_written(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path, monkeypatch, ["--preset", "fig7", "--svg", "plot.svg"]
        )
        assert code == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_nonmarkovian_flags(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "dephasing",
                "--mode", "non-markovian",
                "--thetas", "pi/5, pi/4, pi/2",
                "--k", "3",
                "--steps", "40",
                "--csv", "mem.csv",
            ],
        )
        assert code == 0
        rows = (tmp_path / "mem.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        assert any(b > a + 1e-9 for a, b in zip(values, values[1:]))

    def test_sequential_pauli(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "pauli",
                "--mode", "sequential",
                "--px", "0.01", "--py", "0.01", "--pz", "0.01",
                "--steps", "10",
                "--csv", "seq.csv",
            ],
        )
        assert code == 0
        rows = (tmp_path / "seq.csv").read_text().splitlines()
        assert len(rows) == 12

    def test_custom_channel_file(self, tmp_path, monkeypatch):
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * PAULI_X])
        save_channel(ch, tmp_path / "chan.json")
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "custom-file",
                "--mode", "sequential",
                "--channel-file", "chan.json",
                "--steps", "5",
                "--csv", "custom.csv",
            ],
        )
        assert code == 0
        assert (tmp_path / "custom.csv").exists()

    def test_resource_table_flag(self, tmp_path, monkeypatch, capsys):
        code = run_main_in(
            tmp_path, monkeypatch, ["--preset", "fig6", "--resource-table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dilation_qubits" in out
        assert "qubit_count = 2" in out  # per-arm report for the markovian step

    def test_sweep_runs_all(self, tmp_path, monkeypatch):
        for i, preset in enumerate(("fig6", "fig8")):
            (tmp_path / f"c{i}.cfg").write_text(
                f"preset = {preset}\ncsv = out{i}.csv\n"
            )
        code = run_main_in(
            tmp_path, monkeypatch, ["--sweep", "c0.cfg", "c1.cfg"]
        )
        assert code == 0
        assert (tmp_path / "out0_markovian.csv").exists()
        assert (tmp_path / "out1_nonmarkovian.csv").exists()


class TestPresetOutputs:
    """The preset CSVs hold the dense per-op oracle's values, and every run
    writes the same bytes."""

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_rows_match_the_oracle_and_runs_repeat_bytes(self, preset, tmp_path, monkeypatch):
        (tmp_path / "preset.cfg").write_text(f"preset = {preset}\n")
        cfg = parse_config(tmp_path / "preset.cfg")
        runs = []
        for out in ("first", "second"):
            (tmp_path / out).mkdir()
            argv = ["--preset", preset, "--svg", f"{preset}.svg"]
            assert run_main_in(tmp_path / out, monkeypatch, argv) == 0
            runs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
        assert runs[0] == runs[1]
        steps = {
            "markovian": build_markovian_step(cfg.channel, cfg.theta),
            "nonmarkovian": build_nonmarkovian_step(cfg.channel, MemorySpec(cfg.k, cfg.thetas)),
        }
        assert sorted(runs[0]) == sorted([f"{preset}.svg"] + [f"{preset}_{a}.csv" for a in steps])
        projectors = {n: projector_observable(n).projector for n in cfg.observables}
        for arm, step in steps.items():
            want = dense_trajectory(step, cfg.initial, cfg.steps)
            header, *rows = runs[0][f"{preset}_{arm}.csv"].decode().splitlines()
            assert header == "step,observable,value,trace,purity"
            assert [row.split(",")[:2] for row in rows] == [
                [str(n), name] for n in range(cfg.steps + 1) for name in cfg.observables
            ]
            for row in rows:
                n, name, value, trace, pur = row.split(",")
                red = want[int(n)]
                assert abs(float(value) - np.trace(projectors[name] @ red).real) <= 1e-12
                assert abs(float(trace) - np.trace(red).real) <= 1e-12
                assert abs(float(pur) - np.trace(red @ red).real) <= 1e-12


class TestSweep:
    def test_runs_in_argument_order_past_a_failing_config(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = warp\n")
        (tmp_path / "c.cfg").write_text("preset = fig8\ncsv = c.csv\n")
        alone = []
        for cfg in ("a.cfg", "c.cfg"):
            assert run_main_in(tmp_path, monkeypatch, ["--config", cfg]) == 0
            alone.append(capsys.readouterr().out)
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg", "c.cfg"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == alone[0] + alone[1]
        assert captured.err.strip().splitlines() == [
            "config error: b.cfg:2: unknown mode 'warp'; expected one of "
            "('markovian', 'non-markovian', 'sequential')"
        ]

    def test_shared_output_path_exits_2_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = same.csv\n")
        (tmp_path / "b.cfg").write_text("preset = fig8\ncsv = same.csv\n")
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "config error: a.cfg and b.cfg both write same_markovian.csv"
        ]
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]

    @pytest.mark.parametrize("key,value,path", [
        ("svg", "plot", "plot.svg"),
        ("circuit", "step", "step_markovian.circuit"),
    ])
    def test_shared_svg_or_circuit_path_exits_2(
        self, tmp_path, monkeypatch, capsys, key, value, path
    ):
        (tmp_path / "a.cfg").write_text(f"preset = fig6\ncsv = a.csv\n{key} = {value}\n")
        (tmp_path / "b.cfg").write_text(f"preset = fig7\ncsv = b.csv\n{key} = ./{value}\n")
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "a.cfg and b.cfg both write" in err and path in err
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.cfg").write_text("channel = dephasing\nmode = warp\n")
        code = run_main_in(tmp_path, monkeypatch, ["--config", "bad.cfg"])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--config", "absent.cfg"])
        assert code == 2

    def test_no_arguments_exits_2(self, tmp_path, monkeypatch):
        assert run_main_in(tmp_path, monkeypatch, []) == 2

    def test_invalid_custom_channel_exits_2(self, tmp_path, monkeypatch, capsys):
        ch = KrausChannel(2, [0.5 * np.eye(2)])
        save_channel(ch, tmp_path / "bad.json")
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "custom-file",
                "--mode", "sequential",
                "--channel-file", "bad.json",
            ],
        )
        assert code == 2
        assert "completeness" in capsys.readouterr().err

    def test_numerical_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        from oqsim.engine import NumericalViolationError

        def exploding(step, rho0, steps, observables):
            raise NumericalViolationError(7, "trace", "trace drifted")

        monkeypatch.setattr(cli.engine, "run", exploding)
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "step 7" in err and "trace" in err

    def test_unwritable_output_exits_4(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", str(target)])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: cannot write")
        assert "x_markovian.csv" in err[0]


class TestAtomicWrite:
    def test_leaves_no_temp_file_and_keeps_default_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        cli._atomic_write(str(path), "a\n")
        cli._atomic_write(str(path), "b\n")
        assert path.read_text() == "b\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_concurrent_writers_to_one_path(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "same.csv"
        texts = [f"{i}\n" * 1000 for i in range(16)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda t: cli._atomic_write(str(path), t), texts))
        assert path.read_text() in texts
        assert os.listdir(tmp_path) == ["same.csv"]

