import csv
import dataclasses
import json

import numpy as np
import pytest

from snvc.cli import FitReport, TableSchema, load_table, main, write_table
from snvc.errors import ConfigInvalid, EmptyAfterFiltering, MissingColumn, ParseError
from snvc.simlab import gen_toy
from snvc.spatial import DEFAULT_MAX_SITES, SiteSet


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def spatial_csv(tmp_path):
    rng = np.random.default_rng(21)
    n = 80
    coords = rng.uniform(0, 10, (n, 2))
    x1 = rng.normal(size=n)
    x2 = rng.uniform(0, 5, n)
    y = 1.0 + 0.5 * x1 - 0.2 * x2 + 0.3 * rng.normal(size=n)
    path = tmp_path / "data.csv"
    write_csv(path, ["px", "py", "price", "x1", "x2"], np.column_stack([coords, y, x1, x2]).tolist())
    return str(path)


SCHEMA = TableSchema(coord_x="px", coord_y="py", response="price", covariates=("x1", "x2"))


class TestLoadTable:
    def test_basic_load(self, spatial_csv):
        table = load_table(spatial_csv, SCHEMA)
        assert table.n_rows == 80
        assert table.n_dropped == 0

    @pytest.mark.parametrize("token", ["NA", "inf", "-inf"])
    def test_na_rows_dropped_with_count(self, tmp_path, token):
        rows = [[1.0, 2.0, 3.0, 4.0, 5.0] for _ in range(99)]
        rows.insert(42, [1.0, 2.0, token, 4.0, 5.0])
        path = tmp_path / "na.csv"
        write_csv(path, ["px", "py", "price", "x1", "x2"], rows)
        table = load_table(str(path), SCHEMA)
        assert table.n_rows == 99
        assert table.n_dropped == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["px", "py", "price"], [[1, 2, 3]])
        with pytest.raises(MissingColumn, match="x1"):
            load_table(str(path), SCHEMA)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["px", "py", "price", "x1", "x2"], [[1, 2, 3, "abc", 5]])
        with pytest.raises(ParseError) as err:
            load_table(str(path), SCHEMA)
        assert err.value.row == 2
        assert err.value.column == "x1"
        assert err.value.token == "abc"

    @pytest.mark.parametrize(
        "text, message, token",
        [
            ("px,py\n0,1\n2,3\n4\n", "expected 2 fields, got 1 at row 4, column '*'", None),
            ("px,py\n0,abc\n", "cannot parse 'abc' at row 2, column 'py'", "abc"),
            ("# note\npx,py,py\n0,1,2\n", "the header repeats the column at row 2, column 'py'", None),
        ],
        ids=["field-count", "cell", "repeated-column"],
    )
    def test_parse_error_says_what_is_wrong(self, tmp_path, text, message, token):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_table(str(path), TableSchema(coord_x="px", coord_y="py", response=None))
        assert str(err.value) == message
        assert err.value.token == token

    def test_parse_error_after_a_multiline_field_names_the_file_line(self, tmp_path):
        path = tmp_path / "multiline.csv"
        write_csv(path, ["px", "py", "price", "x1", "x2", "note"], [
            [1, 2, 3, 4, 5, "one line"],
            [1, 2, 3, 4, 5, "two\nlines"],
            [1, 2, 3, "abc", 5, "one line"],
        ])  # fmt: skip
        with pytest.raises(ParseError) as err:
            load_table(str(path), SCHEMA)
        assert (err.value.row, err.value.column, err.value.token) == (5, "x1", "abc")

    def test_repeated_column_the_loader_does_not_read_is_allowed(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("px,note,py,note\n0,a,1,b\n")
        table = load_table(str(path), TableSchema(coord_x="px", coord_y="py", response=None))
        np.testing.assert_array_equal(table.coords, [[0.0, 1.0]])

    @pytest.mark.parametrize("text", ["", "\n \n", "# comment only\n"], ids=["empty", "blank", "comment"])
    def test_file_without_a_header_row(self, tmp_path, text):
        path = tmp_path / "headless.csv"
        path.write_text(text)
        with pytest.raises(EmptyAfterFiltering, match="has no header row"):
            load_table(str(path), SCHEMA)

    def test_empty_after_filtering(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["px", "py", "price", "x1", "x2"], [[1, 2, "NA", 4, 5]])
        with pytest.raises(EmptyAfterFiltering):
            load_table(str(path), SCHEMA)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(25, 5)) * np.pi
        path = tmp_path / "rt.csv"
        write_table(str(path), ["px", "py", "price", "x1", "x2"], data, comment="round trip")
        table = load_table(str(path), SCHEMA)
        np.testing.assert_array_equal(table.coords, data[:, :2])
        np.testing.assert_array_equal(table.y, data[:, 2])
        np.testing.assert_array_equal(table.X, data[:, 3:])

    @pytest.mark.parametrize("text", [
        "px,py,price,x1,x2\n1,2,3,4,5\n6,7,8,9,0\n\n",
        "px,py,price,x1,x2\n1,2,3,4,5\n\n6,7,8,9,0\n",
        "px,py,price,x1,x2\n1,2,3,4,5\n \t\n6,7,8,9,0\n  \n",
    ], ids=["trailing", "interior", "whitespace"])  # fmt: skip
    def test_blank_lines_are_skipped_and_not_dropped(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        table = load_table(str(path), SCHEMA)
        np.testing.assert_array_equal(table.coords, [[1.0, 2.0], [6.0, 7.0]])
        assert table.n_dropped == 0

    def test_rows_of_delimiters_only_are_dropped_and_counted(self, tmp_path):
        path = tmp_path / "commas.csv"
        path.write_text("px,py\n1,2\n,\n \n , \n6,7\n")
        table = load_table(str(path), TableSchema(coord_x="px", coord_y="py", response=None))
        np.testing.assert_array_equal(table.coords, [[1.0, 2.0], [6.0, 7.0]])
        assert table.n_dropped == 2

    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfpx,py,price,x1,x2\n1,2,3,4,5\n6,7,8,9,0\n")
        table = load_table(str(path), SCHEMA)
        np.testing.assert_array_equal(table.coords, [[1.0, 2.0], [6.0, 7.0]])
        np.testing.assert_array_equal(table.X, [[4.0, 5.0], [9.0, 0.0]])

    def test_coords_must_differ_from_response(self):
        with pytest.raises(ConfigInvalid):
            TableSchema(coord_x="a", coord_y="b", response="a")


class TestFitCommand:
    def test_svc_intercept_only_has_unit_share(self, spatial_csv, tmp_path):
        out, coef = str(tmp_path / "r.json"), str(tmp_path / "c.csv")
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--svc", "intercept", "--nvc", "none",
            "--out", out, "--coef-out", coef,
        ])
        assert code == 0
        report = FitReport.from_json(open(out).read())
        assert report.svc_share["intercept"] == 1.000
        assert report.n_eigvecs > 0

    def test_plain_regression_matches_ols(self, spatial_csv, tmp_path):
        out, coef = str(tmp_path / "r.json"), str(tmp_path / "c.csv")
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--svc", "none", "--nvc", "none",
            "--out", out, "--coef-out", coef,
        ])
        assert code == 0
        report = FitReport.from_json(open(out).read())
        table = load_table(spatial_csv, SCHEMA)
        Xi = np.column_stack([np.ones(table.n_rows), table.X])
        b_ols, *_ = np.linalg.lstsq(Xi, table.y, rcond=None)
        np.testing.assert_allclose(report.b_hat, b_ols, atol=1e-10)
        # coefficient columns are constant
        schema = TableSchema("coord_x", "coord_y", None, ("x1_total", "x2_total"))
        coefs = load_table(coef, schema)
        assert np.ptp(coefs.X[:, 0]) == 0.0
        assert np.ptp(coefs.X[:, 1]) == 0.0

    def test_report_round_trips_losslessly(self, spatial_csv, tmp_path):
        out, coef = str(tmp_path / "r.json"), str(tmp_path / "c.csv")
        main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--svc", "none", "--nvc", "x2",
            "--out", out, "--coef-out", coef,
        ])
        text = open(out).read()
        report = FitReport.from_json(text)
        assert FitReport.from_json(report.to_json()) == report

    def test_site_id_is_integer_text_as_in_the_basis_csv(self, spatial_csv, tmp_path):
        coef, basis = tmp_path / "c.csv", tmp_path / "b.csv"
        assert main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--svc", "none", "--nvc", "none",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(coef),
        ]) == 0
        assert main(["basis", "--data", spatial_csv, "--coords", "px,py", "--out", str(basis)]) == 0

        def site_ids(path):
            with open(path) as fh:
                rows = csv.DictReader(l for l in fh if not l.startswith("#"))
                return [r["site_id"] for r in rows if r.get("kind", "site") == "site"]

        assert site_ids(coef) == site_ids(basis) == [str(i) for i in range(80)]

    def test_report_layout(self):
        report = FitReport(*[(i,) for i in range(len(dataclasses.fields(FitReport)))])
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "config", "covariates", "estimates", "svc_share", "sd_svc", "sd_nvc", "converged",
            "n_loglik_evals", "inactive_terms", "n_obs", "n_eigvecs", "n_dropped_rows", "timing_seconds",
        ]  # fmt: skip
        assert payload["estimates"] == {
            "b_hat": [2], "tau2_s": [3], "alpha": [4], "tau2_n": [5], "sigma2": [6], "restricted_loglik": [7],
        }  # fmt: skip
        assert payload["covariates"] == [1] and payload["timing_seconds"] == [17]

    def test_report_lists_inactive_terms(self, spatial_csv, tmp_path):
        # The response has no spatial or non-spatial variation: terms whose
        # variance is exactly 0 are listed, and every alpha is a number.
        out, coef = str(tmp_path / "r.json"), str(tmp_path / "c.csv")
        main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--svc", "all", "--nvc", "all",
            "--out", out, "--coef-out", coef,
        ])
        payload = json.loads(open(out).read())
        report = FitReport.from_json(json.dumps(payload))
        assert payload["inactive_terms"] == list(report.inactive_terms) != []
        for term in report.inactive_terms:
            name, kind = term.split(":")
            k = report.covariate_names.index(name)
            assert (report.tau2_s if kind == "svc" else report.tau2_n)[k] == 0.0
        assert all(np.isfinite(report.alpha))
        assert FitReport.from_json(report.to_json()) == report

    def test_nvc_on_intercept_rejected(self, spatial_csv, tmp_path):
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--nvc", "intercept",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--y", "y", "--x", "a",
            "--coords", "px,py", "--out", str(tmp_path / "r.json"),
            "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 3

    def test_unreadable_data_path_is_data_error(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(tmp_path), "--y", "y", "--x", "a",
            "--coords", "px,py", "--out", str(tmp_path / "r.json"),
            "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    @pytest.mark.parametrize(
        "x, message",
        [
            ("price", "the response 'price' cannot also be a covariate"),
            ("x1,x1", "covariates must be distinct"),
            (",", "--x must name at least one covariate column"),
        ],
        ids=["response-as-covariate", "repeated-covariate", "no-covariate"],
    )
    def test_bad_covariate_list_is_a_config_error_before_reading(
        self, spatial_csv, tmp_path, capsys, monkeypatch, x, message
    ):
        def no_read(*args):
            raise AssertionError("the CSV was read before the covariate list was checked")

        monkeypatch.setattr("snvc.cli.load_table", no_read)
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", x, "--coords", "px,py",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and message in err["message"]

    def test_data_column_named_intercept_is_a_config_error_before_reading(self, tmp_path, capsys, monkeypatch):
        # The model's own intercept takes that name; a data column of the same
        # name would appear twice in the report, the shares and the CSV header.
        rng = np.random.default_rng(6)
        path = tmp_path / "intercept.csv"
        write_csv(path, ["px", "py", "price", "intercept", "x1"], rng.normal(size=(30, 5)).tolist())

        def no_read(*args):
            raise AssertionError("the CSV was read before the covariate list was checked")

        monkeypatch.setattr("snvc.cli.load_table", no_read)
        out, coef = tmp_path / "r.json", tmp_path / "c.csv"
        code = main([
            "fit", "--data", str(path), "--y", "price", "--x", "intercept,x1", "--coords", "px,py",
            "--out", str(out), "--coef-out", str(coef),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "--x cannot name a column 'intercept'" in err["message"]
        assert not out.exists() and not coef.exists()

    def test_spline_error_names_the_covariate(self, tmp_path, capsys):
        # With the default --nvc all, a 0/1 dummy cannot carry a spline basis.
        rng = np.random.default_rng(7)
        n = 40
        rows = np.column_stack([rng.uniform(0, 10, (n, 2)), rng.normal(size=(n, 2)), rng.integers(0, 2, n)])
        path = tmp_path / "dummy.csv"
        write_csv(path, ["px", "py", "price", "x1", "flood"], rows.tolist())
        code = main([
            "fit", "--data", str(path), "--y", "price", "--x", "x1,flood", "--coords", "px,py",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooFewDistinctValues"
        assert err["message"] == "the NVC term of 'flood': covariate has 2 distinct values; need >= 12"

    def test_log_response_requires_positive_values(self, tmp_path):
        rows = np.column_stack([
            np.random.default_rng(0).uniform(0, 10, (20, 2)),
            np.linspace(-1, 5, 20),
            np.random.default_rng(1).normal(size=20),
        ])
        path = tmp_path / "neg.csv"
        write_csv(path, ["px", "py", "price", "x1"], rows.tolist())
        code = main([
            "fit", "--data", str(path), "--y", "price", "--x", "x1",
            "--coords", "px,py", "--log-response",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 3

    def test_log_response_fits_the_log_of_the_response(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 60
        coords, x1 = rng.uniform(0, 10, (n, 2)), rng.normal(size=n)
        price = np.exp(0.5 + 0.3 * x1 + 0.2 * rng.normal(size=n))
        estimates = []
        for response, flags in ((price, ["--log-response"]), (np.log(price), [])):
            path = tmp_path / "data.csv"
            # csv writes a float as its repr, so the log column is np.log(price) exactly.
            write_csv(path, ["px", "py", "price", "x1"], np.column_stack([coords, response, x1]).tolist())
            out = tmp_path / "r.json"
            code = main([
                "fit", "--data", str(path), "--y", "price", "--x", "x1", "--coords", "px,py",
                "--out", str(out), "--coef-out", str(tmp_path / "c.csv"),
            ] + flags)  # fmt: skip
            assert code == 0
            estimates.append(json.loads(out.read_text())["estimates"])
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize(
        "n_rows, covariates, flags, message",
        [
            (5, ["x1"], [], "need at least 10 complete rows to fit, got 5"),
            # 12 fixed effects need 13 rows, more than the floor of 10.
            (10, [f"x{j}" for j in range(11)], ["--svc", "none", "--nvc", "none"],
             "need at least 13 complete rows to fit, got 10"),
        ],
        ids=["below-the-floor", "no-more-rows-than-fixed-effects"],
    )  # fmt: skip
    def test_too_few_rows_rejected(self, tmp_path, capsys, n_rows, covariates, flags, message):
        rows = [[i, i + 1.0, 2.0 * i] + [i + j * j for j in range(len(covariates))] for i in range(n_rows)]
        path = tmp_path / "tiny.csv"
        write_csv(path, ["px", "py", "price"] + covariates, rows)
        code = main([
            "fit", "--data", str(path), "--y", "price", "--x", ",".join(covariates),
            "--coords", "px,py", "--out", str(tmp_path / "r.json"),
            "--coef-out", str(tmp_path / "c.csv"),
        ] + flags)  # fmt: skip
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "EmptyAfterFiltering", "message": message}

    @pytest.mark.parametrize("flag", ["--svc", "--nvc"])
    def test_unknown_term_covariate_is_a_config_error(self, spatial_csv, tmp_path, capsys, flag):
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2", "--coords", "px,py", flag, "nosuch",
            "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and f"{flag} names unknown covariate 'nosuch'" in err["message"]

    def test_collinear_covariates_exit_four(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=40)
        rows = np.column_stack([rng.uniform(0, 10, (40, 2)), x1 + rng.normal(size=40), x1, 2.0 * x1])
        path = tmp_path / "collinear.csv"
        write_csv(path, ["px", "py", "price", "x1", "x2"], rows.tolist())
        code = main([
            "fit", "--data", str(path), "--y", "price", "--x", "x1,x2",
            "--coords", "px,py", "--out", str(tmp_path / "r.json"),
            "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 4
        assert '"error": "SingularFixedBlock"' in capsys.readouterr().err

    def test_site_limit_is_a_data_error_found_before_any_distance(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(5)
        n = DEFAULT_MAX_SITES + 1
        path = tmp_path / "big.csv"
        rows = np.column_stack([rng.uniform(0, 10, (n, 2)), rng.normal(size=(n, 2))])
        write_csv(path, ["px", "py", "price", "x1"], rows.tolist())

        def no_distances(self):
            raise AssertionError("distance matrix built before the site limit was checked")

        monkeypatch.setattr(SiteSet, "distances", no_distances)
        fit = ["fit", "--data", str(path), "--y", "price", "--x", "x1", "--coords", "px,py",
               "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv")]
        basis = ["basis", "--data", str(path), "--coords", "px,py", "--out", str(tmp_path / "b.csv")]
        for argv in (fit, basis):
            assert main(argv) == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "SiteLimitExceeded"
            assert f"N = {n} exceeds the dense-decomposition limit" in err["message"]

    @pytest.mark.parametrize("n_basis", ["2", "60"])
    def test_n_basis_outside_its_range_is_a_config_error(self, spatial_csv, tmp_path, capsys, n_basis):
        code = main([
            "fit", "--data", spatial_csv, "--y", "price", "--x", "x1,x2", "--coords", "px,py",
            "--n-basis", n_basis, "--out", str(tmp_path / "r.json"), "--coef-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigInvalid", "message": f"--n-basis must lie in [3, 50], got {n_basis}"}

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", "x.csv"])  # required flags missing
        assert exc.value.code == 2

    def test_toy_nvc_fit_recovers_true_correlation(self, tmp_path):
        # Three seeded grid datasets: the spline-only fit must keep the
        # coefficient correlation near its small true value.
        ccs = []
        for seed in (1, 2, 3):
            inst = gen_toy(seed)
            path = tmp_path / f"toy{seed}.csv"
            write_table(
                str(path),
                ["px", "py", "y", "x1", "x2"],
                np.column_stack([inst.sites.coords, inst.y, inst.X]),
            )
            out, coef = str(tmp_path / f"r{seed}.json"), str(tmp_path / f"c{seed}.csv")
            code = main([
                "fit", "--data", str(path), "--y", "y", "--x", "x1,x2",
                "--coords", "px,py", "--svc", "none", "--nvc", "x1,x2",
                "--out", out, "--coef-out", coef,
            ])
            assert code == 0
            schema = TableSchema("coord_x", "coord_y", None, ("x1_total", "x2_total"))
            coefs = load_table(coef, schema)
            ccs.append(float(np.corrcoef(coefs.X[:, 0], coefs.X[:, 1])[0, 1]))
        assert abs(np.mean(ccs) - 0.102) < 0.1


class TestSimulateCommand:
    def test_small_run(self, tmp_path):
        out = str(tmp_path / "sim.json")
        code = main([
            "simulate", "--n", "50", "--iters", "2", "--seed", "7",
            "--estimators", "LM", "--out", out,
        ])
        assert code == 0
        payload = json.load(open(out))
        assert payload["n_success"]["LM"] == 2
        assert payload["config"]["seed"] == 7

    def test_reports_byte_identical_outside_timing(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"sim_{tag}.json")
            assert main([
                "simulate", "--n", "40", "--iters", "2", "--seed", "3",
                "--estimators", "LM,SVC_M", "--out", out,
            ]) == 0
            outs.append(open(out).read())
        # identical bytes up to the timing section, identical parsed bodies
        assert outs[0].split('"timing"')[0] == outs[1].split('"timing"')[0]
        ja, jb = json.loads(outs[0]), json.loads(outs[1])
        ja.pop("timing"), jb.pop("timing")
        assert ja == jb

    def test_grid_layout_sets_the_40_by_40_grid(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--layout", "grid", "--estimators", "LM", "--iters", "1", "--out", str(out)]
        assert main(argv) == 0
        config = json.loads(out.read_text())["config"]
        assert config["site_layout"] == "grid_40x40" and config["n_sites"] == 1600

    def test_invalid_weight_rejected(self, tmp_path):
        code = main(["simulate", "--w-s", "1.5", "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_non_numeric_tau2_is_a_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--tau2", "1,x", "--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigInvalid", "message": "--tau2 expects two numbers, got '1,x'"}

    def test_site_limit_is_a_config_error_found_before_any_distance(self, tmp_path, capsys, monkeypatch):
        def no_distances(self):
            raise AssertionError("distance matrix built before the site limit was checked")

        monkeypatch.setattr(SiteSet, "distances", no_distances)
        argv = ["simulate", "--n", str(DEFAULT_MAX_SITES + 1), "--iters", "1", "--estimators", "LM"]
        assert main(argv + ["--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert f"n_sites must be <= {DEFAULT_MAX_SITES}, got {DEFAULT_MAX_SITES + 1}" in err["message"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--tau2", "inf,1", "tau2_2 must be finite and positive, got inf"),
            ("--tau2", "1,inf", "tau2_3 must be finite and positive, got inf"),
            ("--tau2", "1", "--tau2 expects two comma-separated values, e.g. 1,9"),
        ],
        ids=["negative-seed", "infinite-tau2-2", "infinite-tau2-3", "single-tau2"],
    )
    def test_seed_and_tau2_out_of_range_are_config_errors(self, tmp_path, capsys, flag, value, message):
        argv = ["simulate", "--n", "40", "--iters", "1", "--estimators", "LM", flag, value]
        assert main(argv + ["--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigInvalid", "message": message}

    def test_unreadable_config_path_is_data_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "s.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    @pytest.mark.parametrize("text", [b"n_sites = 45\n", b'{"seed": "\xff"}'], ids=["not-json", "not-utf8"])
    def test_config_that_is_not_json_is_a_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "--config is not a JSON file" in err["message"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_sites": "abc"}, "n_sites must be an integer, got 'abc'"),
            ({"w_s": None}, "w_s must be a number, got None"),
            ({"estimators": None}, "estimators must be a list of names, got None"),
            ({"n_basis_nvc": 2}, "n_basis_nvc must lie in [3, 50], got 2"),
            ({"spline_family": "cubic"}, "spline_family must be one of"),
            (["n_sites"], "--config must hold a JSON object"),
            ({"n_site": 45}, "unknown config fields: ['n_site']"),
            ({"estimators": ["LM", "LM"]}, "estimators must be distinct, got ['LM', 'LM']"),
        ],
        ids=[
            "string-n-sites", "null-w-s", "null-estimators", "n-basis-nvc", "spline-family", "not-an-object",
            "unknown-field", "repeated-estimator",
        ],
    )
    def test_bad_config_field_is_a_config_error(self, tmp_path, capsys, fields, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert main(["simulate", "--config", str(cfg), "--iters", "1", "--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and message in err["message"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sites": 45, "estimators": ["LM"], "n_iters": 5}))
        out = str(tmp_path / "sim.json")
        code = main(["simulate", "--config", str(cfg), "--iters", "1", "--out", out])
        assert code == 0
        payload = json.load(open(out))
        assert payload["config"]["n_sites"] == 45
        assert payload["config"]["n_iters"] == 1


class TestBasisCommand:
    def test_exports_eigenvalues_and_vectors(self, spatial_csv, tmp_path):
        out = str(tmp_path / "basis.csv")
        assert main(["basis", "--data", spatial_csv, "--coords", "px,py", "--out", out]) == 0
        with open(out) as fh:
            lines = [l for l in fh if not l.startswith("#")]
        rows = list(csv.reader(lines))
        header, eigen_row = rows[0], rows[1]
        assert header[0] == "kind"
        assert eigen_row[0] == "eigenvalue"
        n_vec = len(header) - 4
        assert n_vec >= 1
        assert len(rows) == 2 + 80
        eigvals = np.array([float(v) for v in eigen_row[4:]])
        assert np.all(np.diff(eigvals) <= 0) and np.all(eigvals > 0)

    @pytest.mark.parametrize("data", [
        b"px,py\n0,1\n2,3\n4,5\n\n",
        b"px,py\n0,1\n\n2,3\n4,5\n",
        b"\xef\xbb\xbfpx,py\n0,1\n2,3\n4,5\n",
        b"px,py\n0,1\n \n2,3\n4,5\n\t \n",
    ], ids=["trailing-blank", "interior-blank", "byte-order-mark", "whitespace"])  # fmt: skip
    def test_blank_lines_and_byte_order_mark_are_read(self, tmp_path, data):
        path = tmp_path / "sites.csv"
        path.write_bytes(data)
        out = tmp_path / "b.csv"
        assert main(["basis", "--data", str(path), "--coords", "px,py", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(l for l in fh if not l.startswith("#")))
        assert [r[1:4] for r in rows[2:]] == [["0", "0.0", "1.0"], ["1", "2.0", "3.0"], ["2", "4.0", "5.0"]]

    def test_one_complete_row_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_csv(path, ["px", "py"], [[0.0, 1.0], [2.0, "NA"]])
        assert main(["basis", "--data", str(path), "--coords", "px,py", "--out", str(tmp_path / "b.csv")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptyAfterFiltering" and "got 1" in err["message"]


@pytest.mark.parametrize("command", ["fit", "basis"])
def test_bytes_that_are_not_utf8_are_a_parse_error(spatial_csv, tmp_path, capsys, command):
    with open(spatial_csv, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    px, py, rest = lines[-1].split(b",", 2)
    lines[-1] = b",".join([px, b"\xff\xfe", rest])
    with open(spatial_csv, "wb") as fh:
        fh.write(b"".join(lines))
    args = {"fit": ["--y", "price", "--x", "x1,x2", "--coef-out", str(tmp_path / "c.csv")], "basis": []}
    out = str(tmp_path / "out")
    assert main([command, "--data", spatial_csv, "--coords", "px,py", "--out", out] + args[command]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "at row 81, column 'py'" in err["message"]


@pytest.mark.parametrize("command", ["fit", "basis"])
def test_one_coordinate_name_is_a_config_error(spatial_csv, tmp_path, capsys, command):
    args = {"fit": ["--y", "price", "--x", "x1,x2", "--coef-out", str(tmp_path / "c.csv")], "basis": []}
    out = str(tmp_path / "out")
    assert main([command, "--data", spatial_csv, "--coords", "px", "--out", out] + args[command]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert err["message"] == "--coords expects two comma-separated column names, e.g. px,py"


@pytest.mark.parametrize("command", ["fit", "basis"])
def test_field_over_the_csv_size_limit_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "long.csv"
    path.write_text("px,py,price,x1\n1.0,2.0,3.0," + "7" * 200_000 + "\n")
    args = {"fit": ["--y", "price", "--x", "x1", "--coef-out", str(tmp_path / "c.csv")], "basis": []}
    out = str(tmp_path / "out")
    assert main([command, "--data", str(path), "--coords", "px,py", "--out", out] + args[command]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "field larger than field limit" in err["message"]
    assert "at row 2, column '*'" in err["message"]
