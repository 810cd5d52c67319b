"""The README's library example must run against the current API."""

import re
from pathlib import Path

import hcf

from helpers import buffer, harmonic_complex, noise_at_snr

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's ``## Library`` heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys, rng):
    clean = harmonic_complex(150.0, 8, 0.3, amp=0.05)
    hcf.write_wav(buffer(clean), tmp_path / "clean.wav", bit_depth="float32")
    noisy = clean + noise_at_snr(clean, 10.0, rng)
    hcf.write_wav(buffer(noisy), tmp_path / "noisy.wav", bit_depth="float32")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    assert (tmp_path / "out.wav").exists()
    assert "2304" in capsys.readouterr().out
