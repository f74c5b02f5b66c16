import json

import pytest

from nttkit import cli, planner
from nttkit.cli import format_poly_file, main, parse_poly_file
from nttkit.errors import ParseError
from nttkit.polymul import oracle_multiply
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_PLUS_1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_report(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# polynomial files


def test_poly_file_round_trip(rng):
    ring = RingSpec(XN_PLUS_1, 64, 3329)
    p = Poly.random(ring, rng)
    text = format_poly_file(p)
    again = parse_poly_file(text)
    assert again.coeffs == p.coeffs and again.ring == p.ring
    assert format_poly_file(again) == text  # bit-exact round trip


def test_poly_file_comments_and_padding():
    text = "# header comment\nring x^n-1 n=4 q=17\n1 2 # trailing\n3\n"
    p = parse_poly_file(text)
    assert p.coeffs == [1, 2, 3, 0]


def test_poly_file_errors():
    with pytest.raises(ParseError) as e:
        parse_poly_file("ring x^n*1 n=4 q=17\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_poly_file("ring x^n-1 n=4 q=17\n1 zz 3\n")
    assert e.value.line == 2 and e.value.column == 3
    with pytest.raises(ParseError):
        parse_poly_file("ring x^n-1 n=4 q=17\n1 2 3 4 5\n")
    with pytest.raises(ParseError):
        parse_poly_file("ring x^n-1 n=4 q=17\n20\n")  # out of range
    with pytest.raises(ParseError):
        parse_poly_file("")


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "dilithium", "--trials", "5")
    assert code == 0
    rep = last_report(out)
    assert rep["verdict"] == "pass" and rep["trials"] == 5


def test_verify_unfriendly_needs_flag(capsys):
    code, out, err = run(capsys, "verify", "--form", "x^n+1", "-n", "256", "-q", "3328",
                         "--trials", "2")
    assert code == 2
    assert "allow_bigmod" in err or "allow-bigmod" in err
    code, out, _ = run(capsys, "verify", "--form", "x^n+1", "-n", "256", "-q", "3328",
                       "--trials", "2", "--allow-bigmod")
    assert code == 0


def test_verify_detects_mismatch(capsys, monkeypatch):
    # corrupt the pipeline; the in-process oracle must catch it
    real = planner.multiply

    def broken(a, b, plan, **kw):  # a Poly is read-only: return a corrupted copy
        c = real(a, b, plan, **kw).coeffs
        c[0] = (c[0] + 1) % a.ring.q
        return Poly(c, a.ring)

    monkeypatch.setattr(cli.planner, "multiply", broken)
    code, out, _ = run(capsys, "verify", "--preset", "kyber", "--trials", "3")
    assert code == 1
    assert last_report(out)["verdict"] == "fail"


def test_verify_report_byte_stable(capsys):
    _, out1, _ = run(capsys, "verify", "--preset", "kyber", "--trials", "4", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "--preset", "kyber", "--trials", "4", "--seed", "7")
    r1, r2 = last_report(out1), last_report(out2)
    r1.pop("wall_ms")
    r2.pop("wall_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_verify_threaded_matches_sequential(capsys, monkeypatch):
    monkeypatch.setenv("NTTKIT_THREADS", "4")
    _, out_t, _ = run(capsys, "verify", "--preset", "kyber", "--trials", "8", "--seed", "3")
    monkeypatch.setenv("NTTKIT_THREADS", "1")
    _, out_s, _ = run(capsys, "verify", "--preset", "kyber", "--trials", "8", "--seed", "3")
    rt, rs = last_report(out_t), last_report(out_s)
    rt.pop("wall_ms")
    rs.pop("wall_ms")
    assert rt == rs


def test_verify_saber_preset(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "saber-m4", "--trials", "5")
    assert code == 0 and last_report(out)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# other subcommands


def test_count_ops_formulas(capsys):
    code, out, _ = run(capsys, "count-ops", "--preset", "dilithium")
    assert code == 0
    rep = last_report(out)
    n = 256
    assert rep["forward_mults"] == n * 8 // 2
    assert rep["inverse_mults"] == n * 8 // 2 + n
    assert rep["separate_forward_mults"] == n * 8 // 2 + n
    assert rep["separate_inverse_mults"] == n * 8 // 2 + 2 * n
    assert rep["verdict"] == "pass"


def test_count_ops_beta_cropped(capsys):
    code, out, _ = run(capsys, "count-ops", "--preset", "kyber")
    assert code == 0
    rep = last_report(out)
    assert rep["forward_mults"] == 256 * 7 // 2  # 896: one level cropped


def test_bench_reports_speedup(capsys):
    code, out, _ = run(capsys, "bench", "--preset", "dilithium", "--trials", "3")
    assert code == 0
    rep = last_report(out)
    assert rep["ntt_median_ms"] < rep["schoolbook_median_ms"]


def test_bench_reports_oracle_time(capsys):
    code, out, _ = run(capsys, "bench", "--preset", "kyber", "--trials", "3")
    assert code == 0
    assert last_report(out)["oracle_median_ms"] > 0


def test_mul_by_one_echoes_input(tmp_path, capsys, rng):
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    a = Poly.random(ring, rng)
    one = Poly.from_ints([1], ring)
    fa, fb, fc = tmp_path / "a.poly", tmp_path / "one.poly", tmp_path / "c.poly"
    fa.write_text(format_poly_file(a))
    fb.write_text(format_poly_file(one))
    code, out, _ = run(capsys, "mul", str(fa), str(fb), str(fc))
    assert code == 0
    assert parse_poly_file(fc.read_text()).coeffs == a.coeffs


def test_mul_matches_oracle(tmp_path, capsys, rng):
    ring = RingSpec(XN_MINUS_1, 32, 97)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    fa, fb, fc = tmp_path / "a.poly", tmp_path / "b.poly", tmp_path / "c.poly"
    fa.write_text(format_poly_file(a))
    fb.write_text(format_poly_file(b))
    code, _, _ = run(capsys, "mul", str(fa), str(fb), str(fc))
    assert code == 0
    assert parse_poly_file(fc.read_text()).coeffs == oracle_multiply(a, b).coeffs


def test_mul_incompatible_rings(tmp_path, capsys):
    fa, fb = tmp_path / "a.poly", tmp_path / "b.poly"
    fa.write_text("ring x^n-1 n=4 q=17\n1 2 3 4\n")
    fb.write_text("ring x^n-1 n=4 q=97\n1 2 3 4\n")
    code, _, err = run(capsys, "mul", str(fa), str(fb), str(tmp_path / "c.poly"))
    assert code == 2 and "different rings" in err


def test_plan_output(capsys):
    code, out, _ = run(capsys, "plan", "--preset", "kyber")
    assert code == 0
    rep = last_report(out)
    assert rep["class"] == "pow2_partial_friendly(deficit=1)"
    assert rep["strategy"].startswith("incomplete")
    assert any("3329 = 1 (mod 256)" in c for c in rep["checks"])
    assert "basis" not in rep


def test_plan_output_names_the_replacing_basis(capsys):
    code, out, _ = run(capsys, "plan", "--preset", "ntru-821")
    assert code == 0
    rep = last_report(out)
    assert rep["basis"] == [120833, 133121]
    assert "lift(549755809793 -> 120833*133121)" in rep["strategy"]
    assert "lift modulus 549755809793 >= 2^31 runs on basis 120833*133121: ok" in rep["checks"]


def test_plan_trace_small(capsys):
    code, out, _ = run(capsys, "plan", "--form", "x^n+1", "-n", "8", "-q", "17", "--trace")
    assert code == 0
    assert "level 0:" in out and "twiddle exponent" in out


# the schedule text of `plan --trace` for n = 16, q = 97 (after the JSON
# report line), pinned byte for byte
TRACE_16_97 = {
    "x^n+1": """\
# butterfly schedule, CT natural->bit_reversed
level 0:
  ( 0, 8) twiddle exponent 8
  ( 1, 9) twiddle exponent 8
  ( 2,10) twiddle exponent 8
  ( 3,11) twiddle exponent 8
  ( 4,12) twiddle exponent 8
  ( 5,13) twiddle exponent 8
  ( 6,14) twiddle exponent 8
  ( 7,15) twiddle exponent 8
level 1:
  ( 0, 4) twiddle exponent 4
  ( 1, 5) twiddle exponent 4
  ( 2, 6) twiddle exponent 4
  ( 3, 7) twiddle exponent 4
  ( 8,12) twiddle exponent 12
  ( 9,13) twiddle exponent 12
  (10,14) twiddle exponent 12
  (11,15) twiddle exponent 12
level 2:
  ( 0, 2) twiddle exponent 2
  ( 1, 3) twiddle exponent 2
  ( 4, 6) twiddle exponent 10
  ( 5, 7) twiddle exponent 10
  ( 8,10) twiddle exponent 6
  ( 9,11) twiddle exponent 6
  (12,14) twiddle exponent 14
  (13,15) twiddle exponent 14
level 3:
  ( 0, 1) twiddle exponent 1
  ( 2, 3) twiddle exponent 9
  ( 4, 5) twiddle exponent 5
  ( 6, 7) twiddle exponent 13
  ( 8, 9) twiddle exponent 3
  (10,11) twiddle exponent 11
  (12,13) twiddle exponent 7
  (14,15) twiddle exponent 15
""",
    "x^n-1": """\
# butterfly schedule, CT natural->bit_reversed
level 0:
  ( 0, 8) twiddle exponent 0
  ( 1, 9) twiddle exponent 0
  ( 2,10) twiddle exponent 0
  ( 3,11) twiddle exponent 0
  ( 4,12) twiddle exponent 0
  ( 5,13) twiddle exponent 0
  ( 6,14) twiddle exponent 0
  ( 7,15) twiddle exponent 0
level 1:
  ( 0, 4) twiddle exponent 0
  ( 1, 5) twiddle exponent 0
  ( 2, 6) twiddle exponent 0
  ( 3, 7) twiddle exponent 0
  ( 8,12) twiddle exponent 4
  ( 9,13) twiddle exponent 4
  (10,14) twiddle exponent 4
  (11,15) twiddle exponent 4
level 2:
  ( 0, 2) twiddle exponent 0
  ( 1, 3) twiddle exponent 0
  ( 4, 6) twiddle exponent 4
  ( 5, 7) twiddle exponent 4
  ( 8,10) twiddle exponent 2
  ( 9,11) twiddle exponent 2
  (12,14) twiddle exponent 6
  (13,15) twiddle exponent 6
level 3:
  ( 0, 1) twiddle exponent 0
  ( 2, 3) twiddle exponent 4
  ( 4, 5) twiddle exponent 2
  ( 6, 7) twiddle exponent 6
  ( 8, 9) twiddle exponent 1
  (10,11) twiddle exponent 5
  (12,13) twiddle exponent 3
  (14,15) twiddle exponent 7
""",
}


@pytest.mark.parametrize("form", sorted(TRACE_16_97))
def test_plan_trace_text_is_pinned(capsys, form):
    code, out, _ = run(capsys, "plan", "--form", form, "-n", "16", "-q", "97", "--trace")
    assert code == 0
    report, text = out.split("\n", 1)
    assert json.loads(report)["strategy"] == "full"
    assert text == TRACE_16_97[form]


def test_plan_trace_refused_for_large_n(capsys):
    code, _, err = run(capsys, "plan", "--preset", "kyber", "--trace")
    assert code == 2 and "n <= 16" in err


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--preset", "not-a-preset", "--trials", "1")
    assert code == 2 and "unknown preset" in err
