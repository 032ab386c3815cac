import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import oqsim.cli as cli
from oqsim.channels import KrausChannel, PAULI_X, save_channel
from oqsim.circuit import (
    MemorySpec,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
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

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ConfigError, match="divides by zero"):
            parse_angle(text)


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

    def test_not_utf8_cannot_be_read(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes("channel = d\xe9phasing\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)

    @pytest.mark.parametrize("line", ["theta = abc", "thetas = pi/4, zz"])
    def test_angle_errors_carry_path_and_line(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text(f"channel = dephasing\nmode = markovian\n{line}\n")
        with pytest.raises(ConfigError, match="cannot parse angle") as err:
            parse_config(path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_observable_list_rejected_at_its_line(self, tmp_path, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"preset = fig6\nobservables = {value}\n")
        with pytest.raises(ConfigError, match="at least one") as err:
            parse_config(path)
        assert str(err.value).startswith(f"{path}:2: ")

    def test_repeated_observable_rejected_at_its_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.cfg").write_text("preset = fig6\nobservables = p1, p0, p1\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg", "--csv", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "config error: exp.cfg:2: observable 'p1' is named twice\n"
        )
        assert os.listdir(tmp_path) == ["exp.cfg"]

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
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

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

    def test_unnamed_sequential_gate_dumps_and_round_trips(self, tmp_path, monkeypatch, capsys):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * h], label="had")
        save_channel(ch, tmp_path / "had.json")
        argv = ["--mode", "sequential", "--channel", "custom-file", "--channel-file",
                "had.json", "--steps", "3", "--dump-circuit", "x"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "x").read_text()
        assert '\n["UNITARY", ["e", "q"], ' in text
        assert same_circuit(parse_circuit(text), build_sequential_step(ch))

    def test_dump_of_a_channel_whose_label_holds_a_line_break_round_trips(
        self, tmp_path, monkeypatch, capsys
    ):
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * PAULI_X],
                          label="a\nRESET e")
        save_channel(ch, tmp_path / "ch.json")
        argv = ["--channel", "custom-file", "--mode", "sequential", "--channel-file", "ch.json",
                "--dump-circuit", "o.circuit"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        back = parse_circuit((tmp_path / "o.circuit").read_text())
        ran = build_sequential_step(ch)
        assert len(ran.ops) == 6 and same_circuit(back, ran)

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

    def test_sequential_pauli_nan_probability_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--channel", "pauli", "--mode", "sequential", "--px", "nan", "--csv", "seq.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            "config error: probability px = nan is not a finite number\n"
        )
        assert not (tmp_path / "seq.csv").exists()

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

    def test_flags_apply_to_every_config(self, tmp_path, monkeypatch):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = markovian\ntheta = pi/5\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--steps", "3", "--observables", "p0"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        for name in ("a_markovian.csv", "a_nonmarkovian.csv", "dephasing-markovian.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert [row.split(",")[:2] for row in rows] == [[str(n), "p0"] for n in range(4)]

    def test_resource_table_printed_once_after_every_run(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("preset = fig7\ncsv = b.csv\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--resource-table"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        out = capsys.readouterr().out
        assert out.count("dilation_qubits") == 1
        assert out.index("dilation_qubits") > out.index("[fig7/nonmarkovian] p+ monotone")

    def test_resource_table_not_printed_after_a_failing_config(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = warp\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--resource-table"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "dilation_qubits" not in capsys.readouterr().out

    def test_output_flag_shared_by_two_configs_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\n")
        (tmp_path / "b.cfg").write_text("preset = fig8\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "config error: a.cfg and b.cfg both write x_markovian.csv\n"
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]

    def test_config_and_sweep_are_exclusive(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\n")
        with pytest.raises(SystemExit) as exit_:
            run_main_in(tmp_path, monkeypatch, ["--config", "a.cfg", "--sweep", "a.cfg"])
        assert exit_.value.code == 2
        assert "not allowed with argument --config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["a.cfg"]

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


class TestOutputCollisions:
    @pytest.mark.parametrize("argv,err", [
        (["--csv", "p.svg", "--svg", "p.svg"], "config error: csv and svg both write p.svg\n"),
        (["--csv", "x", "--dump-circuit", "./x"], "config error: csv and circuit both write ./x\n"),
    ], ids=["csv-svg", "csv-circuit"])
    def test_two_outputs_of_one_config_exit_2(self, tmp_path, monkeypatch, capsys, argv, err):
        base = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5"]
        assert run_main_in(tmp_path, monkeypatch, base + argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
        assert os.listdir(tmp_path) == []

    def test_two_outputs_of_one_config_file_name_the_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\nmode = markovian\ncsv = p.svg\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "a.cfg", "--svg", "p"]) == 2
        assert capsys.readouterr().err == "config error: a.cfg: csv and svg both write p.svg\n"
        assert os.listdir(tmp_path) == ["a.cfg"]


class TestErrorOrigins:
    def test_flag_error_carries_no_file_prefix(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.cfg").write_text("channel = dephasing\nmode = markovian\ntheta = pi/5\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "ok.cfg", "--steps", "-3"]) == 2
        assert capsys.readouterr().err == "config error: steps must be >= 1, got -3\n"

    def test_preset_value_takes_the_preset_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# fig6 with a shorter memory\npreset = fig6\nk = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}:2: 'thetas' has 3 angles but k = 2"

    def test_missing_key_names_the_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("mode = markovian\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: missing required key 'channel'"


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.cfg").write_text("channel = dephasing\nmode = warp\n")
        code = run_main_in(tmp_path, monkeypatch, ["--config", "bad.cfg"])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--config", "absent.cfg"])
        assert code == 2

    def test_no_arguments_exits_2(self, tmp_path, monkeypatch, capsys):
        assert run_main_in(tmp_path, monkeypatch, []) == 2
        assert capsys.readouterr().err.startswith("config error: nothing to do")

    def test_resource_table_alone_needs_no_experiment(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "oqsim.cli", "--resource-table"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == cli._resource_comparison_table() + "\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,key", [
        ("--csv", "csv"), ("--svg", "svg"), ("--dump-circuit", "circuit"),
    ])
    def test_empty_output_path_flag_exits_2(self, tmp_path, monkeypatch, capsys, flag, key):
        assert run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", flag, ""]) == 2
        assert capsys.readouterr().err == f"config error: {key} must name a file\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key", ["csv", "svg", "circuit"])
    def test_empty_output_path_in_a_file_names_its_line(self, tmp_path, monkeypatch, capsys, key):
        (tmp_path / "exp.cfg").write_text(f"preset = fig6\n[outputs]\n{key} =\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == f"config error: exp.cfg:3: {key} must name a file\n"
        assert os.listdir(tmp_path) == ["exp.cfg"]

    def test_invalid_custom_channel_exits_2(self, tmp_path, monkeypatch, capsys):
        # 0.5 I alone: written by hand, as no KrausChannel holds an incomplete set
        (tmp_path / "bad.json").write_text(
            '{"dim": 2, "operators": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}'
        )
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

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "operators": 5}',
        "5",
        '{"dim": 2, "operators": [[1, 2, 3, 4]]}',
        '{"dim": 2.5, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}',
    ])
    def test_malformed_channel_file_exits_2(self, tmp_path, monkeypatch, capsys, text):
        (tmp_path / "ch.json").write_text(text)
        argv = ["--channel", "custom-file", "--mode", "sequential", "--channel-file", "ch.json"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "config error: cannot load channel file 'ch.json'" in capsys.readouterr().err

    def test_not_utf8_config_exits_2_alone_and_in_a_sweep(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.cfg").write_bytes("channel = d\xe9phasing\n".encode("latin-1"))
        assert run_main_in(tmp_path, monkeypatch, ["--config", "bad.cfg"]) == 2
        assert run_main_in(tmp_path, monkeypatch, ["--sweep", "bad.cfg"]) == 2
        assert capsys.readouterr().err.count("cannot read config") == 2

    def test_empty_observables_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--preset", "fig7", "--observables", ""]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "at least one" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_denominator_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--channel", "amplitude-damping", "--mode", "markovian", "--theta", "pi/0"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "config error: angle 'pi/0' divides by zero\n"
        assert os.listdir(tmp_path) == []

    def test_zero_denominator_in_a_file_names_its_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.cfg").write_text(
            "channel = dephasing\nmode = non-markovian\nthetas = pi/5, 3pi/0\n"
        )
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == (
            "config error: exp.cfg:3: angle '3pi/0' divides by zero\n"
        )

    def test_register_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def too_large(step, rho0, steps, observables):
            raise MemoryError

        monkeypatch.setattr(cli.engine, "run", too_large)
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--mode", "non-markovian"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: the nonmarkovian run (register dimension 16, 50 steps) "
            "does not fit in memory\n"
        )

    @pytest.mark.parametrize("k", [30, 70])
    def test_memory_order_beyond_numpy_shapes_exits_2(self, tmp_path, monkeypatch, capsys, k):
        argv = ["--channel", "amplitude-damping", "--mode", "non-markovian",
                "--thetas", ",".join(["0.1"] * k), "--steps", "3", "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            f"config error: the nonmarkovian run (register dimension {2 ** (k + 1)}, 3 steps) "
            "does not fit in memory\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("steps", ["99999999999999999999", str(2**58)])
    def test_step_count_beyond_numpy_shapes_exits_2(self, tmp_path, monkeypatch, capsys, steps):
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", steps, "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            f"config error: the markovian run (register dimension 4, {steps} steps) "
            "does not fit in memory\n"
        )
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("sweep", [False, True])
    def test_output_in_a_missing_directory_exits_4_before_running(
        self, tmp_path, monkeypatch, capsys, sweep
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\nsvg = missing/p.svg\n")
        argv = ["--sweep", "a.cfg"] if sweep else ["--preset", "fig6", "--svg", "missing/p.svg"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "output error: cannot write missing/p.svg: No such file or directory"
        ]
        assert os.listdir(tmp_path) == ["a.cfg"]

    @pytest.mark.parametrize("sweep", [False, True])
    def test_output_naming_a_directory_exits_4_before_running(
        self, tmp_path, monkeypatch, capsys, sweep
    ):
        (tmp_path / "adir").mkdir()
        (tmp_path / "a.cfg").write_text(
            "channel = dephasing\nmode = markovian\ntheta = pi/5\ncsv = out.csv\ncircuit = adir\n"
        )
        argv = ["--sweep", "a.cfg"] if sweep else [
            "--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
            "--csv", "out.csv", "--dump-circuit", "adir",
        ]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "output error: cannot write adir: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "adir"]

    def test_output_naming_a_fifo_exits_4_and_keeps_it(self, tmp_path, monkeypatch, capsys):
        os.mkfifo(tmp_path / "pipe.csv")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", "3", "--csv", "pipe.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == "output error: cannot write pipe.csv: not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(tmp_path / "pipe.csv").st_mode)
        assert os.listdir(tmp_path) == ["pipe.csv"]

    def test_failed_rename_exits_4_and_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5", "--steps", "2"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == (
            "output error: cannot write dephasing-markovian.csv: Permission denied\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,err", [
        (["--config", "dup.cfg"], "dup.cfg:4: duplicate key 'theta'"),
        (["--channel", "dephasing"], "missing required key 'mode'"),
        (["--channel", "dephasing", "--mode", "markovian"], "mode markovian requires 'theta'"),
        (["--channel", "pauli", "--mode", "markovian", "--theta", "pi/5"],
         "channel pauli requires mode sequential"),
        (["--channel", "custom-file", "--mode", "sequential"],
         "channel custom-file requires 'channel_file'"),
        (["--preset", "fig6", "--initial", "1,x;0,0"],
         "cannot parse initial state '1,x;0,0': complex() arg is a malformed string"),
        (["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
          "--initial", "1,0;0,inf"],
         "cannot parse initial state '1,0;0,inf': trace (inf+0j) deviates from 1 beyond 1e-10"),
    ])
    def test_config_rule_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv, err):
        (tmp_path / "dup.cfg").write_text(
            "channel = dephasing\nmode = markovian\ntheta = pi/5\ntheta = pi/4\n"
        )
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert os.listdir(tmp_path) == ["dup.cfg"]


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

