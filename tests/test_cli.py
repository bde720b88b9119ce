import argparse
import csv
import hashlib
import io
import json
import logging
import os
import subprocess
import sys

import pytest

import asympure
from asympure import cli
from asympure.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A JSON document nested more deeply than any recursion limit lets json decode
DEEP = "[" * 100_000 + "]" * 100_000
# The two commands that read an operator file
OPERATOR_COMMANDS = [
    ["oracle", "--n", "2", "--k", "1", "--A", "3", "--B", "2"],
    ["series", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--m", "2..4",
     "--engine", "oracle"],
]


class TestBasicCommands:
    def test_bott_table(self, capsys):
        code, out, _ = run(capsys, "bott", "--n", "2", "--d", "-4")
        assert code == 0
        assert "h^2 = 3" in out

    def test_product_json(self, capsys):
        code, out, _ = run(capsys, "product", "--n", "2", "--a1", "2", "--a2", "-4",
                           "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["result"]["values"] == ["0", "0", "18", "0", "0"]
        assert envelope["result"]["euler"] == "18"

    def test_product_negative_pair(self, capsys):
        code, out, _ = run(capsys, "product", "--n", "1", "--a1", "-2", "--a2", "-2",
                           "--format", "json")
        assert json.loads(out)["result"]["values"] == ["0", "0", "1"]

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2", "--A", "9", "--B", "3",
                           "--format", "json")
        result = json.loads(out)["result"]
        assert result["total_dim"] == "550"
        assert len(result["components"]) == 4

    def test_predict(self, capsys):
        code, out, _ = run(capsys, "predict", "--n", "2", "--k", "1", "--A", "9",
                           "--B", "3", "--format", "json")
        result = json.loads(out)["result"]
        assert result["kernel_dim"] == "154"
        assert result["cokernel_dim"] == "0"

    def test_oracle_special(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "9",
                           "--B", "3", "--format", "json")
        result = json.loads(out)["result"]
        assert result["rank"] == "396"
        assert result["certified"] is True

    def test_oracle_operator_file(self, capsys, tmp_path):
        # the one-term corner operator: kernel 12 at multiple 3
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 1,
             "terms": [{"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}
        ))
        code, out, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "2",
                           "--B", "1", "--operator-file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["kernel_dim"] == "12"

    def test_csv_cells_keep_nested_items_apart(self, capsys):
        # a list's items are joined by ';', an item's own parts by ' '
        code, out, _ = run(capsys, "predict", "--n", "2", "--k", "2", "--A", "5", "--B", "3",
                           "--format", "csv")
        assert (code, out) == (0, "cokernel_dim,cokernel_labels,dim_source,dim_target,"
                                  "kernel_dim,kernel_labels\n0,,210,108,102,6 2;5 3\n")
        code, out, _ = run(capsys, "decompose", "--n", "2", "--A", "2", "--B", "2",
                           "--format", "csv")
        assert (code, out) == (0, "A,B,components,rank_n,total_dim\n2,2,"
                                  "dim=15 lambda1=4 lambda2=0;dim=15 lambda1=3 lambda2=1;"
                                  "dim=6 lambda1=2 lambda2=2,2,36\n")
        code, out, _ = run(capsys, "product", "--n", "1", "--a1", "-2", "--a2", "-2",
                           "--format", "csv")
        assert (code, out) == (0, "euler,n_ambient,support,values\n1,2,2,0;0;1\n")

    def test_series_rep(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "2", "--k", "1", "--a1", "2",
                           "--a2", "1", "--m", "5..7", "--engine", "rep",
                           "--format", "json")
        rows = json.loads(out)["result"]["rows"]
        assert rows[0] == {"m": "5", "kernel_dim": "154", "cokernel_dim": "0"}

    @pytest.mark.parametrize("flag", ["--operator-file", "--operator"])
    def test_series_rep_refuses_other_operators(self, capsys, tmp_path, flag):
        # the rep engine predicts the special operator; the one-term corner
        # has kernels 12 and 30 at m = 3 and 4, not the special 8 and 15
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 1,
             "terms": [{"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}
        ))
        value = str(path) if flag == "--operator-file" else "bogus"
        argv = ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4"]
        code, out, err = run(capsys, *argv, "--engine", "rep", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error: the rep engine predicts only the special operator")
        assert flag in err
        code, out, _ = run(capsys, *argv, "--engine", "rep", "--operator", "special")
        assert code == 0 and "kernel_dim=15" in out
        if flag == "--operator-file":
            code, out, _ = run(capsys, *argv, "--engine", "oracle", flag, value,
                               "--format", "json")
            kernels = [r["kernel_dim"] for r in json.loads(out)["result"]["rows"]]
            assert (code, kernels) == (0, ["12", "30"])

    def test_series_rep_logs_dropped_multiples(self, capsys, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure")  # main sets it; restored after the test
        argv = ["series", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--m", "1..6"]
        for flags, logged in (([], []), (["--verbose"], ["dropped m=[1]"])):
            caplog.clear()
            code, out, err = run(capsys, *argv, *flags)
            assert code == 0 and "UserWarning" not in err
            assert [r.getMessage()[:13] for r in caplog.records
                    if r.name == "asympure.projspace"] == logged

    def test_series_engines_give_the_same_rows(self, capsys):
        argv = ["series", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--m", "1..6",
                "--format", "json"]
        rows = {}
        for engine in ("rep", "oracle"):
            code, out, _ = run(capsys, *argv, "--engine", engine)
            assert code == 0
            rows[engine] = [(r["m"], r["kernel_dim"], r["cokernel_dim"])
                            for r in json.loads(out)["result"]["rows"]]
        assert rows["rep"] == rows["oracle"]
        assert [m for m, _, _ in rows["rep"]] == ["2", "3", "4", "5", "6"]

    def test_series_oracle_rows_are_the_oracle_payloads(self, capsys, tmp_path):
        # an operator file that does not preserve weight, and the special operator
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "k": 1, "terms": [
            {"coeff": 2, "alpha": [1, 0, 0], "beta": [0, 0, 1]},
            {"coeff": -1, "alpha": [0, 1, 0], "beta": [0, 1, 0]},
        ]}))
        for flags in (["--operator-file", str(path)], []):
            code, out, _ = run(capsys, "series", "--n", "2", "--k", "1", "--a1", "2",
                               "--a2", "1", "--m", "0..6", "--engine", "oracle",
                               "--format", "json", *flags)
            rows = json.loads(out)["result"]["rows"]
            feasible = asympure.feasible_multiples(2, 1, 2, 1, range(0, 7))
            assert code == 0 and [row["m"] for row in rows] == [str(m) for m, _, _ in feasible]
            for row, (_, A, B) in zip(rows, feasible):
                code, out, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", str(A),
                                   "--B", str(B), "--format", "json", *flags)
                assert code == 0
                assert {k: v for k, v in row.items() if k != "m"} == json.loads(out)["result"]

    def test_series_oracle(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "2", "--k", "1", "--a1", "1",
                           "--a2", "1", "--m", "3..4", "--engine", "oracle",
                           "--format", "json")
        rows = json.loads(out)["result"]["rows"]
        assert [r["kernel_dim"] for r in rows] == ["8", "15"]

    def test_asymptotics(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--n", "2", "--k", "1", "--a1", "2",
                           "--a2", "1", "--format", "json")
        result = json.loads(out)["result"]
        assert result["values"] == ["0", "6", "0", "0"]
        assert result["verdict"] == "pure(1)"

    def test_asymptotics_pure_zero(self, capsys):
        for a1, a2, case in [("1", "1", "mixed"), ("0", "0", "boundary")]:
            code, out, _ = run(capsys, "asymptotics", "--n", "2", "--k", "1", "--a1", a1,
                               "--a2", a2, "--format", "json")
            assert code == 0
            result = json.loads(out)["result"]
            assert (result["case"], result["verdict"]) == (case, "pure_zero")


class TestScan:
    def test_csv_schema_and_verdicts(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "scan", "--n", "2", "--k", "1", "--a1", "0..4",
                           "--a2", "0..4", "--out", str(out_file))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows[0] == ["n", "k", "a1", "a2", "case",
                           "h_hat_0", "h_hat_1", "h_hat_2", "h_hat_3", "verdict"]
        assert len(rows) == 26  # header + 25 grid points
        for row in rows[1:]:
            assert row[-1].startswith(("pure(", "pure_zero"))

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "2", "--k", "1", "--a1", "1..2",
                           "--a2", "1..2", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 5

    def test_benchmark_scan_bytes_are_pinned(self, capsys):
        # the purity_scan benchmark's 420 calls, their stdout joined in (n, k, a1)
        # order: the sha256 its workload records
        digest = hashlib.sha256()
        for n in range(2, 7):
            for k in range(1, 5):
                for a1 in range(21):
                    code, out, err = run(capsys, "scan", "--n", str(n), "--k", str(k),
                                         "--a1", str(a1), "--a2", "0..20", "--format", "csv")
                    assert (code, err) == (0, ""), (n, k, a1)
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "55675343503a0c9598c8ce6f16921b38c2dac9122d5d0a1849b64044676ba8f6")

    def test_table_summary_counts_each_verdict_kind(self, capsys):
        # n >= 2: the seven boundary classes and the three with a1 == a2 vanish
        code, out, err = run(capsys, "scan", "--n", "2", "--k", "1", "--a1", "0..3", "--a2", "0..3")
        assert (code, out, err) == (0, "16 rows (pure=6, pure_zero=10)\n", "")

    def test_impure_class_is_reported(self, capsys, monkeypatch):
        import asympure.asymptotics as asym

        fake = asympure.AsymptoticVector((1, 2, 0, 0))
        # the one class, (1, 1), builds the fake vector in place of its (0, 0, 0, 0)
        monkeypatch.setattr(asym, "AsymptoticVector", lambda values: fake)
        code, out, err = run(capsys, "scan", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1")
        assert (code, out, err) == (1, "1 rows (impure=1)\n", "error: impure verdicts at [(1, 1)]\n")

    def test_a_polynomial_off_the_prediction_fails_verify_not_scan(self, capsys, monkeypatch):
        # verify ties the series polynomials to the prediction and exits 1; scan
        # reads its mixed values off their closed form, so its output stays
        import asympure.verify as verify

        real = verify.series_polynomials

        def constant_off_by_one(n, k, a1, a2):
            kernel, cokernel = real(n, k, a1, a2)
            return [kernel[0] + 1, *kernel[1:]], cokernel

        argv = ("scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "1", "--verbose")
        clean = run(capsys, *argv)
        monkeypatch.setattr(verify, "series_polynomials", constant_off_by_one)
        assert run(capsys, *argv) == clean and clean[0] == 0
        code, out, _ = run(capsys, "verify", "--suite", "small")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL - series polynomial vs prediction: series_polynomials(n, k, a1, a2) at 2n + 3 "
            "multiples from stable_start vs (2n-1)! * kernel_series_rep rows at (1, 1, 1, 1): "
            "[(1, 2, 0), (2, 2, 0), (3, 2, 0), (4, 2, 0), (5, 2, 0)] != "
            "[(1, 1, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0), (5, 1, 0)]"]

    def test_verbose_logs_one_line_per_mixed_class(self, capsys, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure")  # main sets it; restored after the test
        argv = ["scan", "--n", "3", "--k", "2", "--a1", "0..4", "--a2", "0..4", "--format", "json"]
        outputs = []
        for flags in ([], ["--verbose"]):
            caplog.clear()
            outputs.append(run(capsys, *argv, *flags))
            lines = [r.getMessage() for r in caplog.records if r.name == "asympure.asymptotics"]
            assert len(lines) == (16 if flags else 0)
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert lines[:2] == [
            "mixed class (n, k, a1, a2) = (3, 2, 1, 1): stable_start 2, kernel side, "
            "m^5 coefficient 0",
            "mixed class (n, k, a1, a2) = (3, 2, 1, 2): stable_start 2, cokernel side, "
            "m^5 coefficient 2/3",
        ]

    def test_each_class_is_classified_once(self, capsys, monkeypatch):
        import asympure.asymptotics as asym

        classes = [(a1, a2) for a1 in range(4) for a2 in range(4)]
        expected = [asym.asymptotic_special_fiber(2, 1, a1, a2).values for a1, a2 in classes]
        built = []
        real = asym.AsymptoticVector

        def counted(values):
            built.append(values)
            return real(values)

        monkeypatch.setattr(asym, "AsymptoticVector", counted)
        code, _, _ = run(capsys, "scan", "--n", "2", "--k", "1", "--a1", "0..3", "--a2", "0..3")
        assert code == 0
        # one vector per class, in scan order, each that class's own
        assert built == expected

    @pytest.mark.parametrize("argv,span", [
        (["scan", "--a1", "5..2", "--a2", "0..3"], "5..2"),
        (["scan", "--a1", "5..2", "--a2", "0..3", "--format", "json"], "5..2"),
        (["series", "--a1", "1", "--a2", "1", "--m", "5..2"], "5..2"),
        (["scan", "--a1", "x", "--a2", "0..3"], "x"),
        (["series", "--a1", "1", "--a2", "1", "--m", "2.."], "2.."),
        (["scan", "--a1", "1..2..3", "--a2", "0..3"], "1..2..3"),
    ])
    def test_malformed_span_is_a_usage_error(self, capsys, argv, span):
        code, out, err = run(capsys, *argv, "--n", "2", "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: span {span!r} ")

    def test_csv_and_table_build_no_json_payload(self, capsys, monkeypatch):
        scan = ["scan", "--n", "1", "--k", "1", "--a1", "1..2", "--a2", "0..1"]
        series = ["series", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--m", "2..4"]
        plain = [scan + ["--format", "csv"], scan + ["--format", "table"],
                 series + ["--format", "csv"]]
        json_argvs = [scan + ["--format", "json"], series + ["--format", "json"]]
        before = [run(capsys, *argv) for argv in plain]
        json_outputs = [run(capsys, *argv) for argv in json_argvs]
        # JSON output, integers as decimal strings, is pinned byte for byte
        assert json_outputs == [
            (0, '{"command":"scan","params":{"a1":"1..2","a2":"0..1","k":1,"n":1,"seed":0,'
                '"size_cap":200000},"result":{"header":["n","k","a1","a2","case","h_hat_0",'
                '"h_hat_1","verdict"],"impure":[],"rows":[["1","1","1","0","boundary","1","0",'
                '"pure(0)"],["1","1","1","1","mixed","0","0","pure_zero"],["1","1","2","0",'
                '"boundary","2","0","pure(0)"],["1","1","2","1","mixed","1","0","pure(0)"]],'
                '"total":"4"}}\n', ""),
            (0, '{"command":"series","params":{"a1":2,"a2":1,"engine":"rep","k":1,"m":"2..4",'
                '"n":2,"seed":0,"size_cap":200000},"result":{"rows":[{"cokernel_dim":"0",'
                '"kernel_dim":"10","m":"2"},{"cokernel_dim":"0","kernel_dim":"35","m":"3"},'
                '{"cokernel_dim":"0","kernel_dim":"81","m":"4"}]}}\n', ""),
        ]

        def refuse(value):
            raise AssertionError("CSV and table output must not stringify a payload")

        monkeypatch.setattr(cli, "_stringify", refuse)
        assert [run(capsys, *argv) for argv in plain] == before
        for argv in json_argvs:  # the patch is the function the JSON branch calls
            with pytest.raises(AssertionError):
                main(argv)


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["bott", "--n", "2"])  # missing --d
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bott", "--n", "2", "--d", "1"],
        ["product", "--n", "2", "--a1", "1", "--a2", "1"],
        ["decompose", "--n", "2", "--A", "3", "--B", "3"],
        ["predict", "--n", "2", "--k", "1", "--A", "3", "--B", "3"],
        ["oracle", "--n", "2", "--k", "1", "--A", "3", "--B", "3"],
        ["asymptotics", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1"],
        ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4"],
        ["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "0..2"],
        ["verify"],
    ], ids=lambda argv: argv[0])
    def test_negative_size_cap_is_a_usage_error(self, capsys, argv):
        # a size cap bounds basis sizes, so no subcommand accepts one below 0
        with pytest.raises(SystemExit) as err:
            main(argv + ["--size-cap", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --size-cap: must be >= 0, got -1" in captured.err

    def test_invalid_values_exit_2(self, capsys):
        code, _, err = run(capsys, "predict", "--n", "2", "--k", "1", "--A", "3", "--B", "-1")
        assert code == 2
        assert "B=-1" in err

    @pytest.mark.parametrize("command", ["scan", "asymptotics"])
    @pytest.mark.parametrize("n,k", [(0, 1), (2, 0)])
    def test_special_fiber_refuses_n_or_k_below_one(self, capsys, command, n, k):
        code, out, err = run(capsys, command, "--n", str(n), "--k", str(k), "--a1", "1",
                             "--a2", "1")
        assert (code, out) == (2, "")
        assert err == f"error: need n, k >= 1, got n={n}, k={k}\n"

    def test_series_refuses_k_below_one(self, capsys):
        code, out, err = run(capsys, "series", "--n", "2", "--k", "0", "--a1", "1", "--a2", "1",
                             "--m", "1..3")
        assert (code, out) == (2, "")
        assert "need n, k >= 1, got n=2, k=0" in err

    @pytest.mark.parametrize("argv", [
        ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4"],
        ["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "0..2"],
    ], ids=["series", "scan"])
    def test_cache_flag_on_an_uncached_command_exits_2(self, tmp_path, argv):
        cache = tmp_path / "cache.jsonl"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--cache", str(cache)])
        assert err.value.code == 2
        assert not cache.exists()

    def test_parser_is_built_once(self, capsys, monkeypatch):
        # a well-formed argv builds no parser; the top-level parser, with its
        # subparsers, is built once, on the first argv the table declines
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._table.cache_clear()
        cli._build_parser.cache_clear()
        for argv in WELL_FORMED:
            assert run(capsys, *argv)[0] == 0
        assert built == []
        for argv in (["-h"], ["bogus"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == ["asympure"] + [f"asympure {command}" for command in cli.COMMANDS]

    @pytest.mark.parametrize("argv", [
        ["-h"], [], ["bogus"], ["--format", "json", "bott"],
        *([command, "-h"] for command in cli.COMMANDS),
        ["bott", "--n", "2"],
        ["bott", "--n", "x", "--d", "1"],
        ["bott", "--n", "2", "--d", "1", "--bogus"],
        ["bott", "--n", "2", "--d", "1", "extra", "--more"],
        ["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1", "--operator", "special",
         "--operator-file", "op.json"],
        ["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "0..2", "--cache", "x"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_argparse_exits_as_the_top_level_parser_does(self, capsys, argv):
        # a command's own parser prints and exits as its subparser of the top-level
        # parser does, and what is left over is the top-level parser's error
        with pytest.raises(SystemExit) as direct:
            main(argv)
        got = direct.value.code, *capsys.readouterr()
        with pytest.raises(SystemExit) as top:
            cli._build_parser().parse_args(argv)
        assert got == (top.value.code, *capsys.readouterr())
        code, out, err = got
        assert (code, bool(out), bool(err)) == ((0, True, False) if "-h" in argv else (2, False, True))
        assert (out or err).startswith("usage: asympure ")

    def test_leftover_arguments_are_the_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bott", "--n", "2", "--d", "1", "--bogus"])
        captured = capsys.readouterr()
        assert (err.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: asympure [-h]")
        assert captured.err.endswith("asympure: error: unrecognized arguments: --bogus\n")

    def test_an_abbreviated_flag_is_accepted(self, capsys):
        code, out, _ = run(capsys, "bott", "--n", "2", "--d", "1", "--siz", "5", "--format", "json")
        assert code == 0 and '"size_cap":5' in out

    def test_verbose_is_honoured_on_every_in_process_call(self, capsys, caplog):
        argv = ["oracle", "--n", "2", "--k", "1", "--A", "3", "--B", "2"]
        lines = []
        for flags in ([], ["--verbose"], []):
            caplog.clear()
            assert main(argv + flags) == 0
            lines.append([r.getMessage() for r in caplog.records if r.name == "asympure.oracle"])
        assert lines[0] == lines[2] == []
        assert len(lines[1]) == 1 and lines[1][0].startswith("rank 45 of 45x60 matrix: ")

    def test_the_level_is_set_only_when_it_changes(self, capsys, monkeypatch):
        # setLevel clears every logger's level cache, so a call that keeps the level skips it
        logging.getLogger("asympure").setLevel(logging.WARNING)
        levels = []
        real_set_level = logging.Logger.setLevel

        def spy(self, level):
            levels.append((self.name, level))
            real_set_level(self, level)

        monkeypatch.setattr(logging.Logger, "setLevel", spy)
        argv = ["bott", "--n", "2", "--d", "-4"]
        for flags in ([], ["--verbose"], ["--verbose"], [], []):
            assert run(capsys, *argv, *flags)[0] == 0
        assert levels == [("asympure", logging.DEBUG), ("asympure", logging.WARNING)]

    def test_import_loads_no_numpy(self):
        # a fresh interpreter: the package and its CLI need no third-party module
        src = os.path.dirname(os.path.dirname(asympure.__file__))
        script = "import sys, asympure, asympure.cli; sys.exit('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0

    def test_only_verify_imports_the_suite(self):
        # a fresh interpreter: the other commands never load asympure.verify
        src = os.path.dirname(os.path.dirname(asympure.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv, loaded in ((["bott", "--n", "2", "--d", "-4"], False), (["verify"], True)):
            script = ("import io, sys, contextlib; from asympure.cli import main\n"
                      f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
                      "sys.exit('asympure.verify' in sys.modules)")
            assert subprocess.run([sys.executable, "-c", script], env=env).returncode == loaded

    def test_unknown_operator_exits_2(self, capsys):
        # the empty name too: it names no operator, so it is not the special one
        for argv in (["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1"],
                     ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4",
                      "--engine", "oracle"]):
            for name in ("bogus", ""):
                code, out, err = run(capsys, *argv, "--operator", name)
                assert (code, out) == (2, ""), (argv[0], name)
                assert err == f"error: unknown operator {name!r}; use 'special' or --operator-file\n"

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1"],
        ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4",
         "--engine", "oracle"],
    ], ids=["oracle", "series"])
    def test_both_operator_flags_exit_2(self, capsys, tmp_path, argv):
        # the flags name one operator each, so neither silently wins
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 1,
             "terms": [{"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}
        ))
        for flags in (["--operator", "special", "--operator-file", str(path)],
                      ["--operator-file", str(path), "--operator", "special"]):
            with pytest.raises(SystemExit) as err:
                main(argv + flags)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1"],
         "error: [Errno 2] No such file or directory: ''\n"),
        (["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4",
          "--engine", "oracle"],
         "error: [Errno 2] No such file or directory: ''\n"),
        (["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4",
          "--engine", "rep"],
         "error: the rep engine predicts only the special operator; "
         "drop --operator-file or use --engine oracle\n"),
    ], ids=["oracle", "series-oracle", "series-rep"])
    def test_empty_operator_file_exits_2(self, capsys, argv, message):
        # an empty path names no file, so it is not the absent flag (the special operator)
        code, out, err = run(capsys, *argv, "--operator-file", "")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("argv, code, line", [
        (["bott", "--n", "2", "--d", "1", "--cache", ""], 2,
         "error: [Errno 2] No such file or directory: ''\n"),
        (["scan", "--n", "2", "--k", "1", "--a1", "0..1", "--a2", "0..1", "--out", ""], 2,
         "error: [Errno 2] No such file or directory: ''\n"),
        (["verify", "--suite", "small", "--cache", ""], 1,
         "FAIL - cache file '': unreadable ([Errno 2] No such file or directory: '')\n"),
    ], ids=["cached", "scan", "verify"])
    def test_empty_path_is_not_the_absent_flag(self, capsys, monkeypatch, tmp_path, argv,
                                               code, line):
        # as for --operator-file '': an empty path names no file, so no file is written
        monkeypatch.chdir(tmp_path)
        got, out, err = run(capsys, *argv)
        assert got == code
        if code == 2:
            assert (out, err) == ("", line)
        else:  # the suite's checks, then the cache file's FAIL line
            assert err == "" and out.endswith(line + "1 check(s) failed\n")
        assert list(tmp_path.iterdir()) == []

    def test_operator_file_of_another_n_exits_2(self, capsys, tmp_path):
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 1,
             "terms": [{"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}
        ))
        code, out, err = run(capsys, "oracle", "--n", "3", "--k", "1", "--A", "2", "--B", "1",
                             "--operator-file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: operator file has (n, k) = (2, 1), flags say (3, 1)\n"

    def test_size_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "200",
                           "--B", "200", "--size-cap", "1000")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("text", [
        "",  # what /dev/null holds
        "[]",
        '{"n": 2, "k": 1, "terms": [{"coeff": 1, "alpha": [1, 0, 0], "beta": null}]}',
        '{"n": 2, "k": 1, "terms": [{"coeff": 1.5, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}',
        '{"n": 2, "k": 1, "terms": [{"coeff": 1, "alpha": "100", "beta": [1, 0, 0]}]}',
        '{"n": 2, "k": 1, "terms": [{"coeff": true, "alpha": [1, 0, 0], "beta": [1, 0, 0]}]}',
    ], ids=["empty", "list", "null_beta", "float_coeff", "string_alpha", "bool_coeff"])
    def test_unreadable_operator_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "op.json"
        path.write_text(text)
        code, out, err = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "3",
                             "--B", "2", "--operator-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: operator file {path}: ")

    @pytest.mark.parametrize("argv", OPERATOR_COMMANDS, ids=["oracle", "series"])
    def test_operator_file_without_terms_exits_2(self, capsys, tmp_path, argv):
        # the zero operator has no canonical key, so every command refuses it
        path = tmp_path / "zero.json"
        path.write_text('{"n": 2, "k": 1, "terms": []}')
        code, out, err = run(capsys, *argv, "--operator-file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: operator file {path}: an operator needs at least one term\n"

    @pytest.mark.parametrize("argv", OPERATOR_COMMANDS, ids=["oracle", "series"])
    def test_operator_file_too_deep_to_decode_exits_2(self, capsys, tmp_path, argv):
        # a usage error naming the file, not exit 1, the code of a mismatch
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        code, out, err = run(capsys, *argv, "--operator-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: operator file {path}: ")


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        argv = ["oracle", "--n", "2", "--k", "1", "--A", "5", "--B", "4",
                "--format", "json", "--seed", "11"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seed_does_not_change_result_payload(self, capsys):
        base = ["oracle", "--n", "2", "--k", "1", "--A", "5", "--B", "4",
                "--format", "json"]
        _, a, _ = run(capsys, *base, "--seed", "1")
        _, b, _ = run(capsys, *base, "--seed", "2")
        assert json.loads(a)["result"] == json.loads(b)["result"]


KEY = "bott:n=2,d=-4"
FRESH = {"n_ambient": "2", "support": ["2"], "values": ["0", "0", "3"]}  # its true value
STALE = {"n_ambient": "2", "support": ["2"], "values": ["0", "0", "4"]}
# A record of bott:n=2,d=1 whose value is nested too deeply to decode
DEEP_RECORD = '{"key": "bott:n=2,d=1", "value": ' + DEEP + ', "version": "1"}\n'


class TestCache:
    def test_hit_equals_cold_output(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        argv = ["oracle", "--n", "2", "--k", "1", "--A", "6", "--B", "3",
                "--cache", str(cache), "--format", "json"]
        _, cold, _ = run(capsys, *argv)
        _, warm, _ = run(capsys, *argv)
        assert cold == warm
        assert cache.exists() and cache.read_text().count("\n") == 1

    def test_verify_clean_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache))
        run(capsys, "predict", "--n", "2", "--k", "1", "--A", "9", "--B", "3",
            "--cache", str(cache))
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 0
        assert "PASS - cache key bott:n=2,d=-4" in out

    def test_verify_tampered_cache_names_key(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "predict", "--n", "2", "--k", "1", "--A", "9", "--B", "3",
            "--cache", str(cache))
        record = json.loads(cache.read_text())
        record["value"]["kernel_dim"] = "155"
        cache.write_text(json.dumps(record) + "\n")
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert "FAIL - cache key predict:n=2,k=1,A=9,B=3" in out

    def test_verify_audits_the_certified_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        key = "oracle:n=2,k=1,A=3,B=2,op=special"
        run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "3", "--B", "2",
            "--cache", str(cache))
        record = json.loads(cache.read_text())
        assert record["key"] == key and record["value"]["certified"] is True
        record["value"]["certified"] = False
        cache.write_text(json.dumps(record) + "\n")
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert f"FAIL - cache key {key}: cached value differs from recomputation" in out

    def test_torn_final_record_is_skipped_and_cut(self, capsys, caplog, tmp_path):
        # a writer killed mid-record leaves a partial final line
        cache = tmp_path / "cache.jsonl"
        argv = ["bott", "--n", "2", "--d", "-4", "--cache", str(cache), "--format", "json"]
        _, cold, _ = run(capsys, *argv)
        with open(cache, "a", encoding="utf-8") as handle:
            handle.write('{"key": "bo')
        code, warm, _ = run(capsys, *argv)
        assert (code, warm) == (0, cold)
        assert f"{cache}:2" in caplog.text
        code, _, _ = run(capsys, "product", "--n", "2", "--a1", "2", "--a2", "-4",
                         "--cache", str(cache))
        assert code == 0
        lines = cache.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == [
            "bott:n=2,d=-4", "product:n=2,a1=2,a2=-4"]
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 0 and "all checks passed" in out

    def test_short_write_exits_2_and_the_torn_line_is_cut(self, capsys, caplog, monkeypatch,
                                                          tmp_path):
        # a write that stops early leaves a torn final line: the call fails, the next repairs
        from asympure import cache as cache_module

        cache = tmp_path / "cache.jsonl"
        argv = ["bott", "--n", "2", "--d", "-4", "--format", "json"]
        _, cold, _ = run(capsys, *argv)
        real_write = os.write
        with monkeypatch.context() as patch:
            patch.setattr(cache_module.os, "write", lambda fd, data: real_write(fd, data[:10]))
            code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cache}: short write of a cache record (10 of ")
        assert cache.read_text() == '{"key": "b'
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, cold)
        assert f"{cache}:1: skipping torn final cache record" in caplog.text
        assert cache_keys(cache) == ["bott:n=2,d=-4"]

    def test_unterminated_final_record_gets_its_newline(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache))
        cache.write_text(cache.read_text().rstrip("\n"))
        run(capsys, "bott", "--n", "2", "--d", "-3", "--cache", str(cache))
        keys = [json.loads(line)["key"] for line in cache.read_text().splitlines()]
        assert keys == ["bott:n=2,d=-4", "bott:n=2,d=-3"]

    def test_corrupt_middle_record_names_line(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        miss = run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache))
        cache.write_text('{"key": "bo\n' + cache.read_text())
        # a lookup that does not land on the damaged line serves its record
        assert run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache)) == miss
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert f"FAIL - cache file {str(cache)!r}" in out and f"{cache}:1" in out

    def test_deep_final_record_is_skipped_and_cut(self, capsys, caplog, tmp_path):
        # a line nested too deeply to decode is malformed, as a torn one is
        cache = tmp_path / "cache.jsonl"
        cache.write_text(DEEP_RECORD)
        argv = ["bott", "--n", "2", "--d", "-4", "--format", "json"]
        _, cold, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, cold)
        assert f"{cache}:1: skipping torn final cache record" in caplog.text
        assert cache_keys(cache) == ["bott:n=2,d=-4"]

    def test_deep_record_of_the_key_names_line(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache))
        cache.write_text(DEEP_RECORD + cache.read_text())
        code, out, err = run(capsys, "bott", "--n", "2", "--d", "1", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cache}:1: corrupt cache record (")

    def test_verify_fails_on_a_deep_middle_record(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for d in ("-4", "-3"):
            run(capsys, "bott", "--n", "2", "--d", d, "--cache", str(cache))
        first, last = cache.read_text().splitlines(keepends=True)
        cache.write_text(first + DEEP_RECORD + last)
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert f"FAIL - cache file {str(cache)!r}: unreadable ({cache}:2: corrupt cache record (" in out

    @pytest.mark.parametrize("record", [
        {"key": "bott:n=2,d=1", "version": "1", "value": 5},
        {"key": 7, "version": "1", "value": {"values": ["6", "0", "0"]}},
    ], ids=["int_value", "int_key"])
    def test_non_record_final_line_is_skipped_and_cut(self, capsys, caplog, tmp_path, record):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps(record) + "\n")
        argv = ["bott", "--n", "2", "--d", "1", "--format", "json"]
        _, cold, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, cold)
        assert f"{cache}:1" in caplog.text
        assert [json.loads(line)["key"] for line in cache.read_text().splitlines()] == [
            "bott:n=2,d=1"]

    @pytest.mark.parametrize("record, lands", [
        ({"key": "bott:n=2,d=1", "version": "1", "value": 5}, True),
        ({"key": 7, "version": "1", "value": {"values": ["6", "0", "0"]}}, False),
    ], ids=["int_value", "int_key"])
    def test_non_record_middle_line_names_line(self, capsys, tmp_path, record, lands):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "bott", "--n", "2", "--d", "-4", "--cache", str(cache))
        cache.write_text(json.dumps(record) + "\n" + cache.read_text())
        code, out, err = run(capsys, "bott", "--n", "2", "--d", "1", "--cache", str(cache))
        if lands:  # the lookup decodes the damaged line
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {cache}:1: corrupt cache record")
        else:  # a miss: the key 7 line does not start like bott:n=2,d=1's record
            assert (code, out, err) == (0, *run(capsys, "bott", "--n", "2", "--d", "1")[1:])
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert f"FAIL - cache file {str(cache)!r}: unreadable ({cache}:1: corrupt cache record" in out

    @pytest.mark.parametrize("lines, served", [
        ([{"key": KEY, "value": STALE, "version": "1"},
          {"key": KEY, "value": FRESH, "version": "1"}], FRESH),
        ([{"key": KEY, "value": FRESH, "version": "1"},
          {"key": KEY, "value": STALE, "version": "0"},
          {"key": "other", "value": {}, "version": "1"}], FRESH),
        # found by the writer's leading {"key": ..., so another first field is a miss
        ([{"value": FRESH, "key": KEY, "version": "1"}], None),
        # the key of a nested object starts no record
        ([{"key": "other", "value": {"key": KEY, "values": STALE["values"]},
           "version": "1"}], None),
        ([{"key": KEY, "value": FRESH, "version": "1"},
          {"key": "other", "value": {}, "version": "1"}], FRESH),
    ], ids=["later_wins", "other_version_passed_over", "key_not_first", "nested_key", "not_final"])
    def test_lookup_serves_the_last_current_record(self, capsys, tmp_path, lines, served):
        from asympure.cache import ResultCache

        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert ResultCache(cache).get(KEY) == served
        argv = ["bott", "--n", "2", "--d", "-4", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == 0 and json.loads(out)["result"] == (served or FRESH)
        # a miss recomputes and appends its record; a hit appends nothing
        appended = [] if served else [KEY]
        assert cache_keys(cache) == [line["key"] for line in lines] + appended
        assert ResultCache(cache).get(KEY) == FRESH

    def test_hit_decodes_two_lines(self, capsys, monkeypatch, tmp_path):
        from asympure import cache as cache_module

        cache = tmp_path / "cache.jsonl"
        for d in range(-25, 25):
            assert run(capsys, "bott", "--n", "2", "--d", str(d), "--cache", str(cache))[0] == 0
        assert len(cache_keys(cache)) == 50
        miss = run(capsys, "bott", "--n", "2", "--d", "-4", "--format", "json")
        decoded = []
        real_loads = cache_module.json.loads

        def counting_loads(text, *args, **kwargs):
            decoded.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(cache_module.json, "loads", counting_loads)
        assert run(capsys, "bott", "--n", "2", "--d", "-4", "--format", "json",
                   "--cache", str(cache)) == miss
        # the served line and the final line, not the other 48
        assert len(decoded) <= 2
        assert any('"bott:n=2,d=-4"' in text for text in decoded)

    def test_verify_missing_cache_file_fails(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "cache.jsonl"
        # a path with no file, and a directory where the file should be
        for cache, reason in ((missing, "not found"), (tmp_path, "unreadable (")):
            code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
            assert code == 1
            assert f"FAIL - cache file {str(cache)!r}: {reason}" in out
            assert out.endswith("1 check(s) failed\n")
        assert not missing.parent.exists()

    def test_a_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "bott", "--n", "2", "--d", "1", "--cache", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_a_call_opens_the_file_once(self, capsys, monkeypatch, tmp_path):
        # a miss on no file, a hit, and a miss on a file each open it once, and only open it
        from asympure import cache as cache_module

        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        class WatchedPath(type(tmp_path)):
            def exists(self, *args, **kwargs):
                raise AssertionError("the cache looked at its file before opening it")

            read_bytes = exists

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        monkeypatch.setattr(cache_module, "Path", WatchedPath)
        cache = tmp_path / "cache.jsonl"
        argv = ["bott", "--n", "2", "--d", "-4", "--cache", str(cache)]
        miss, hit = run(capsys, *argv), run(capsys, *argv)
        assert miss[0] == 0 and miss == hit
        assert run(capsys, "bott", "--n", "2", "--d", "-5", "--cache", str(cache))[0] == 0
        assert opened == [cache] * 3

    def test_verbose_logs_each_get_and_put(self, capsys, caplog, monkeypatch, tmp_path):
        from asympure import cache as cache_module

        cache = tmp_path / "cache.jsonl"
        argv = ["bott", "--n", "2", "--d", "-4", "--cache", str(cache)]
        miss, hit = run(capsys, *argv, "--verbose"), run(capsys, *argv, "--verbose")
        assert miss == hit and miss[0] == 0
        size = len(cache.read_bytes())
        records = [r for r in caplog.records if r.name == "asympure.cache"]
        assert [(r.getMessage(), r.key, r.hit, r.bytes) for r in records] == [
            (f"get {KEY}: miss", KEY, False, 0),
            (f"put {KEY}: {size} bytes", KEY, False, size),
            (f"get {KEY}: hit, {size} bytes", KEY, True, size),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a cache record was built with DEBUG off")

        monkeypatch.setattr(cache_module.logger, "debug", refuse)
        caplog.clear()
        cache.unlink()
        assert [run(capsys, *argv) for _ in range(2)] == [hit] * 2
        assert caplog.records == []

    def test_put_is_one_write_on_an_append_descriptor(self, monkeypatch, tmp_path):
        from asympure import cache as cache_module

        opened, writes = [], []
        real_open, real_write = cache_module.os.open, cache_module.os.write

        def spy_open(path, flags, *rest):
            fd = real_open(path, flags, *rest)
            opened.append((fd, flags))
            return fd

        def spy_write(fd, data):
            writes.append((fd, bytes(data)))
            return real_write(fd, data)

        monkeypatch.setattr(cache_module.os, "open", spy_open)
        monkeypatch.setattr(cache_module.os, "write", spy_write)
        cache = cache_module.ResultCache(tmp_path / "cache.jsonl")
        cache.put("bott:n=2,d=-4", {"values": ["0", "0", "3"]})
        assert len(opened) == 1 and opened[0][1] & os.O_APPEND
        assert [fd for fd, _ in writes] == [opened[0][0]]
        assert writes[0][1] == (tmp_path / "cache.jsonl").read_bytes()
        assert writes[0][1].endswith(b"\n") and writes[0][1].count(b"\n") == 1


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "small")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") >= 10

    def test_suite_check_names(self):
        from asympure.verify import build_suite

        small = [
            "bott goldens", "Serre duality", "Kunneth duality", "Weyl goldens",
            "Pieri dimension sums", "Euler consistency", "Euler vs Kunneth",
            "engine equivalence (series)", "corner closed form", "corner lower bound",
            "purity scan", "series polynomial vs prediction", "intersection numbers",
            "Riemann-Roch fits",
        ]
        full = small[:8] + ["engine equivalence (grid)"] + small[8:]
        full.append("rank-3 prediction identities")
        assert [name for name, _ in build_suite("small")] == small
        assert [name for name, _ in build_suite("full")] == full
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("medium")


FORMATS = ("json", "csv", "table")

# each cached command with the key it is stored under
CACHED_CALLS = {
    "bott": (["bott", "--n", "2", "--d", "-4"], "bott:n=2,d=-4"),
    "product": (["product", "--n", "2", "--a1", "2", "--a2", "-4"], "product:n=2,a1=2,a2=-4"),
    "decompose": (["decompose", "--n", "2", "--A", "9", "--B", "3"], "decompose:n=2,A=9,B=3"),
    "predict": (["predict", "--n", "2", "--k", "1", "--A", "9", "--B", "3"],
                "predict:n=2,k=1,A=9,B=3"),
    "oracle": (["oracle", "--n", "2", "--k", "1", "--A", "4", "--B", "3"],
               "oracle:n=2,k=1,A=4,B=3,op=special"),
    "asymptotics": (["asymptotics", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1"],
                    "asymptotics:n=2,k=1,a1=2,a2=1"),
}

# the layer functions the cached commands call
LAYER_FUNCTIONS = (
    "bott_cohomology", "kunneth_cohomology", "euler_characteristic",
    "predict_map_analysis", "source_target_dims", "build_matrix", "exact_rank",
    "purity_report", "pieri_decompose", "weyl_dimension",
)


def cache_keys(path) -> list[str]:
    return [json.loads(line)["key"] for line in path.read_text().splitlines()]


class TestCachedCommands:
    @pytest.mark.parametrize("command", sorted(CACHED_CALLS))
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_miss_prints_the_hit_bytes(self, capsys, tmp_path, command, fmt):
        argv, _ = CACHED_CALLS[command]
        argv = argv + ["--format", fmt, "--cache", str(tmp_path / "cache.jsonl")]
        miss, hit = run(capsys, *argv), run(capsys, *argv)
        assert miss[0] == 0 and miss == hit

    @pytest.mark.parametrize("command", sorted(CACHED_CALLS))
    def test_hit_recomputes_nothing(self, capsys, monkeypatch, tmp_path, command):
        from asympure import cli

        argv, key = CACHED_CALLS[command]
        cache = tmp_path / "cache.jsonl"
        argv = argv + ["--cache", str(cache)]
        code, _, _ = run(capsys, *argv)  # the miss
        assert code == 0 and cache_keys(cache) == [key]
        expected = {fmt: run(capsys, *argv, "--format", fmt) for fmt in FORMATS}
        assert all(code == 0 for code, _, _ in expected.values())

        def recompute(*args, **kwargs):
            raise AssertionError("a cache hit recomputed its result")

        for name in LAYER_FUNCTIONS:
            monkeypatch.setattr(cli, name, recompute)
        for fmt in FORMATS:
            assert run(capsys, *argv, "--format", fmt) == expected[fmt]

    def test_miss_builds_the_operator_once(self, capsys, monkeypatch, tmp_path):
        # the key names the operator, so a hit builds none
        built = []

        def counted(n, k):
            built.append((n, k))
            return asympure.special_fiber_operator(n, k)

        monkeypatch.setattr(cli, "special_fiber_operator", counted)
        argv = ["oracle", "--n", "2", "--k", "1", "--A", "4", "--B", "3",
                "--cache", str(tmp_path / "cache.jsonl")]
        miss = run(capsys, *argv)
        assert miss[0] == 0 and built == [(2, 1)]
        assert run(capsys, *argv) == miss and built == [(2, 1)]

    def test_hit_stringifies_nothing(self, capsys, monkeypatch, tmp_path):
        # the stored payload is printed as it is, without a second pass
        from asympure import cli

        cache = tmp_path / "cache.jsonl"
        argvs = [argv + ["--format", "json", "--cache", str(cache)]
                 for argv, _ in CACHED_CALLS.values()]
        misses = [run(capsys, *argv) for argv in argvs]

        def refuse(value):
            raise AssertionError("a cache hit stringified its payload")

        monkeypatch.setattr(cli, "_stringify", refuse)
        assert [run(capsys, *argv) for argv in argvs] == misses

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_format_renders_only_itself(self, capsys, monkeypatch, tmp_path, fmt):
        # JSON builds neither the CSV cells nor the table, CSV no table, a table no cell:
        # without a cache, on a miss and on a hit
        cache = str(tmp_path / "cache.jsonl")
        argvs = [argv + ["--format", fmt] + extra
                 for argv, _ in CACHED_CALLS.values() for extra in ([], ["--cache", cache])]
        expected = [run(capsys, *argv) for argv in argvs]
        (tmp_path / "cache.jsonl").unlink()

        def refuse(*args):
            raise AssertionError(f"--format {fmt} rendered another format")

        if fmt != "csv":
            monkeypatch.setattr(cli, "_csv_cell", refuse)
        if fmt != "table":
            for command, entry in list(cli.CACHED.items()):
                monkeypatch.setitem(cli.CACHED, command, entry._replace(table=refuse))
        outputs = [run(capsys, *argv) for argv in argvs]
        outputs += [run(capsys, *argv) for argv in argvs if "--cache" in argv]  # the hits
        assert outputs == expected + expected[1::2]
        assert all(code == 0 for code, _, _ in outputs)

    def test_every_cached_record_verifies(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for argv, _ in CACHED_CALLS.values():
            assert run(capsys, *argv, "--cache", str(cache))[0] == 0
        assert cache_keys(cache) == [key for _, key in CACHED_CALLS.values()]
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 0
        for _, key in CACHED_CALLS.values():
            assert f"PASS - cache key {key}" in out

    def test_operator_file_record_verifies(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "k": 1, "terms": [
            {"coeff": 2, "alpha": [1, 0, 0], "beta": [0, 0, 1]},
            {"coeff": -1, "alpha": [0, 1, 0], "beta": [0, 1, 0]},
            {"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]},
        ]}))
        cache = tmp_path / "cache.jsonl"
        code, _, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--A", "4", "--B", "3",
                         "--operator-file", str(path), "--cache", str(cache))
        key = "oracle:n=2,k=1,A=4,B=3,op=n2k1:-1*x0.1.0d0.1.0+2*x1.0.0d0.0.1+1*x1.0.0d1.0.0"
        assert code == 0 and cache_keys(cache) == [key]
        argv = ["oracle", "--n", "2", "--k", "1", "--A", "4", "--B", "3", "--operator-file",
                str(path), "--format", "json"]
        miss = run(capsys, *argv)
        assert run(capsys, *argv, "--cache", str(cache)) == miss  # a hit
        assert cache_keys(cache) == [key]
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 0
        assert f"PASS - cache key {key}" in out
        record = json.loads(cache.read_text())
        record["value"]["rank"] = str(int(record["value"]["rank"]) - 1)
        cache.write_text(json.dumps(record) + "\n")
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(cache))
        assert code == 1
        assert f"FAIL - cache key {key}: cached value differs from recomputation" in out

    def test_records_that_cannot_be_recomputed(self, capsys, tmp_path):
        from asympure.cache import ResultCache

        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        n2_operator = asympure.special_fiber_operator(2, 1).canonical_key()
        keys = ["scan:n=2", "bott:n=2", "oracle:n=2,k=1,A=2,B=1,op=n2k1:zz",
                f"oracle:n=3,k=1,A=2,B=2,op={n2_operator}"]
        for key in keys:
            cache.put(key, {"rank": "0"})
        # keys that no call writes, each holding the value its canonical call
        # writes: integers not in plain decimal, and an operator's terms swapped
        operator = tmp_path / "op.json"
        operator.write_text(json.dumps({"n": 2, "k": 1, "terms": [
            {"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]},
            {"coeff": 1, "alpha": [0, 1, 0], "beta": [0, 1, 0]},
        ]}))
        canonical = tmp_path / "canonical.jsonl"
        for argv in (["bott", "--n", "2", "--d", "1"],
                     ["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1",
                      "--operator-file", str(operator)]):
            assert run(capsys, *argv, "--cache", str(canonical))[0] == 0
        (_, bott), (oracle_key, rank) = ResultCache(canonical).items()
        assert oracle_key == "oracle:n=2,k=1,A=2,B=1,op=n2k1:1*x0.1.0d0.1.0+1*x1.0.0d1.0.0"
        swapped = "oracle:n=2,k=1,A=2,B=1,op=n2k1:1*x1.0.0d1.0.0+1*x0.1.0d0.1.0"
        unread = {"bott:n=2,d=01": bott, "bott:n=2,d=+1": bott, "bott:n=2,d=1_0": bott,
                  swapped: rank}
        for key, value in unread.items():
            cache.put(key, value)
        keys += list(unread)
        code, out, _ = run(capsys, "verify", "--suite", "small", "--cache", str(path))
        assert code == 1
        for key in keys:
            assert f"FAIL - cache key {key}: cannot recompute (" in out
        assert f"{len(keys)} check(s) failed" in out


def table_parse_corpus() -> list[list[str]]:
    """Well-formed argvs: the benchmark's cached calls and the other commands' common forms."""
    pool = [["bott", "--n", n, "--d", d] for n in range(1, 6) for d in range(-10, 12)]
    pool += [["product", "--n", n, "--a1", a1, "--a2", a2]
             for n in range(1, 5) for a1 in range(-3, 4) for a2 in range(-3, 4)]
    pool += [["predict", "--n", n, "--k", k, "--A", A, "--B", B]
             for n in range(1, 4) for k in (1, 2) for A in range(6) for B in range(k, k + 6)]
    pool += [["asymptotics", "--n", n, "--k", k, "--a1", a1, "--a2", a2]
             for n in range(1, 5) for k in (1, 2) for a1 in range(4) for a2 in range(5)]
    pool += [["decompose", "--n", n, "--A", A, "--B", B]
             for n in range(1, 4) for A in range(-1, 4) for B in range(4)]
    pool += [["oracle", "--n", n, "--k", k, "--A", A, "--B", B]
             for n in (1, 2) for k in (1, 2) for A in range(-1, 3) for B in range(k, k + 3)]
    pool = [[str(word) for word in argv] for argv in pool]
    # each optional flag set, in each format, before and after the required flags
    optional = [["--cache", "cache.jsonl"], ["--verbose"], ["--size-cap", "5"], ["--seed", "-3"]]
    corpus = []
    for index, argv in enumerate(argv + ["--format", fmt] for argv in pool for fmt in FORMATS):
        extra = [word for bit, flag in enumerate(optional) if index >> bit & 1 for word in flag]
        corpus.append(argv + extra if index % 32 < 16 else argv[:1] + extra + argv[1:])
    oracle = ["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1"]
    series = ["series", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--m", "2..4"]
    scan = ["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "-1", "--out", "grid.csv"]
    corpus += [
        oracle + ["--operator", "special"], oracle + ["--operator-file", "op.json"],
        oracle + ["--operator", "-4"], oracle + ["--operator", ""],
        series, series + ["--engine", "rep"], series + ["--engine", "oracle"],
        series + ["--engine", "oracle", "--operator", "special"],
        series + ["--engine", "oracle", "--operator-file", "op.json", "--format", "json"],
        scan, scan + ["--format", "csv", "--verbose", "--seed", "7"],
        ["verify"], ["verify", "--suite", "full"], ["verify", "--suite", "small", "--cache", "c"],
        ["verify", "--cache", "c", "--verbose", "--size-cap", "0"],
    ]
    return corpus


# forms the table declines, each with the well-formed argv it means or None for an error
DECLINED = {
    "help": (["bott", "-h"], None),
    "long help": (["bott", "--n", "2", "--help"], None),
    "abbreviation": (["bott", "--n", "2", "--d", "1", "--siz", "5"],
                     ["bott", "--n", "2", "--d", "1", "--size-cap", "5"]),
    "flag=value": (["bott", "--n=2", "--d=1", "--size-cap=5"],
                   ["bott", "--n", "2", "--d", "1", "--size-cap", "5"]),
    "repeated flag": (["bott", "--n", "3", "--n", "2", "--d", "1"],
                      ["bott", "--n", "2", "--d", "1"]),
    "double dash": (["bott", "--n", "2", "--d", "1", "--", "x"], None),
    "missing value": (["bott", "--n", "2", "--d"], None),
    "value like a flag": (["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1",
                           "--operator", "-x"], None),
    "bad int": (["bott", "--n", "x", "--d", "1"], None),
    "negative non-integer": (["bott", "--n", "2", "--d", "-1.5"], None),
    "bad choice": (["bott", "--n", "2", "--d", "1", "--format", "xml"], None),
    "negative size cap": (["bott", "--n", "2", "--d", "1", "--size-cap", "-1"], None),
    "two operators": (["oracle", "--n", "2", "--k", "1", "--A", "2", "--B", "1",
                       "--operator", "special", "--operator-file", "op.json"], None),
    "missing required flag": (["bott", "--n", "2"], None),
    "leftover word": (["bott", "--n", "2", "--d", "1", "extra"], None),
    "unknown flag": (["bott", "--n", "2", "--d", "1", "--bogus"], None),
}

# a well-formed argv of each command
WELL_FORMED = [
    ["bott", "--n", "2", "--d", "-4"],
    ["product", "--n", "2", "--a1", "2", "--a2", "-4", "--format", "csv"],
    ["decompose", "--n", "2", "--A", "3", "--B", "3", "--format", "json"],
    ["predict", "--n", "2", "--k", "1", "--A", "3", "--B", "3"],
    ["oracle", "--n", "2", "--k", "1", "--A", "3", "--B", "3", "--operator", "special"],
    ["asymptotics", "--n", "2", "--k", "1", "--a1", "2", "--a2", "1", "--seed", "4"],
    ["series", "--n", "2", "--k", "1", "--a1", "1", "--a2", "1", "--m", "3..4"],
    ["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "0..2", "--verbose"],
    ["verify", "--suite", "small"],
]


class TestTableParse:
    def test_the_table_parse_equals_argparse(self):
        corpus = table_parse_corpus()
        assert len(corpus) > 2300
        differ = []
        for argv in corpus:
            args = cli._build_parser().parse_args(argv)
            parsed = cli._parse_plain(argv[0], argv[1:])
            if parsed is None or vars(parsed) != vars(args):
                differ.append(argv)
        assert differ == []

    @pytest.mark.parametrize("form", sorted(DECLINED))
    def test_a_declined_form_reaches_argparse_once(self, capsys, monkeypatch, form):
        argv, meaning = DECLINED[form]
        assert cli._parse_plain(argv[0], argv[1:]) is None
        if meaning is None:  # the error or the help, as the top-level parser words it
            with pytest.raises(SystemExit) as top:
                cli._build_parser().parse_args(argv)
            expected = (top.value.code, *capsys.readouterr())
        else:
            expected = run(capsys, *meaning)
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        if meaning is None:
            with pytest.raises(SystemExit) as direct:
                main(argv)
            got = (direct.value.code, *capsys.readouterr())
        else:
            got = run(capsys, *argv)
        assert calls == ["asympure", f"asympure {argv[0]}"]  # the top-level parse and its subparser's
        assert got == expected

    def test_a_well_formed_argv_calls_no_argparse_parse(self, capsys, monkeypatch):
        assert [argv[0] for argv in WELL_FORMED] == list(cli.COMMANDS)
        expected = [run(capsys, *argv) for argv in WELL_FORMED]
        assert all(code == 0 for code, _, _ in expected)

        def refuse(*args, **kwargs):
            raise AssertionError("a well-formed argv reached argparse")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        cli._table.cache_clear()
        assert [run(capsys, *argv) for argv in WELL_FORMED] == expected
