"""Every reference run against tests/reference/summaries.json.

Classification, fit window, t_b and config hash must match exactly; lambda
within LAMBDA_RTOL of its reference and the residual within RESIDUAL_ATOL.
Both bounds come from measured drift of the 21 runs on one x86-64 host:

- the same code on numpy's AVX2 code paths instead of its AVX-512 ones
  (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") changes the
  bytes of every series; lambda moves by up to 6.0e-14 relative (fig1b's
  oscillator) and the residual by up to 6.4e-16;
- the closed-form slope in place of an SVD least-squares solve moves lambda
  by up to 2.8e-14 relative and the residual by up to 3.3e-16.

The residual gets an absolute bound: fig1a's fits are exact up to rounding,
so their residuals (1e-9 for r = 5) are rounding noise that moved by 1e-7
relative under the fit change.  A change that moves an output more than this
regenerates the file (tests/reference/regenerate.py) and says why.
"""

import json

from reference.regenerate import PATH, summaries

LAMBDA_RTOL = 1e-12  # 17x the largest drift measured
RESIDUAL_ATOL = 1e-13  # 150x the largest drift measured
EXACT = ("classification", "fit_window", "saturation_time", "config_hash")


def _close(have, want, rtol=0.0, atol=0.0) -> bool:
    if have is None or want is None:
        return have is want
    return abs(have - want) <= max(rtol * abs(want), atol)


def test_summaries_match_the_reference(tmp_path):
    expected = json.loads(PATH.read_text())
    got = summaries(tmp_path)
    assert sorted(got) == sorted(expected)
    wrong = []
    for name, want in sorted(expected.items()):
        have = got[name]
        wrong += [(name, key, have[key], want[key]) for key in EXACT if have[key] != want[key]]
        if not _close(have["lambda"], want["lambda"], rtol=LAMBDA_RTOL):
            wrong.append((name, "lambda", have["lambda"], want["lambda"]))
        if not _close(have["residual"], want["residual"], atol=RESIDUAL_ATOL):
            wrong.append((name, "residual", have["residual"], want["residual"]))
    assert not wrong, "\n".join(f"{name} {key}: {a!r} != reference {b!r}" for name, key, a, b in wrong)
