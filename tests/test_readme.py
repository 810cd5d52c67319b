"""The README's library example must run against the current API, and every
module attribute it names must exist."""

import importlib
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


def test_named_module_attributes_exist():
    names = re.findall(r"`hcf\.(\w+)\.(\w+)[^`]*`", README.read_text())
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"hcf.{module}"), name), f"hcf.{module}.{name}"
