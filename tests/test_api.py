"""The library contract: the exported names and README's library example."""

import re
from pathlib import Path

import numpy as np
import pytest

import diracstab
import diracstab.spectrum
from diracstab.analytics import asymptotic_prediction
from diracstab.operator import continuous_bands
from diracstab.spectrum import default_margin

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [diracstab, diracstab.spectrum],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def readme_library_example() -> str:
    text = README.read_text(encoding="utf-8")
    after = text.split("Typical library use:", 1)[1]
    return re.search(r"```python\n(.*?)```", after, re.DOTALL).group(1)


def test_readme_library_example_returns_isolated_values(capsys):
    source = readme_library_example()
    assert "build_grid(300, 10.0)" in source
    namespace = {}
    exec(compile(source.replace("build_grid(300,", "build_grid(100,"),
                 str(README), "exec"), namespace)
    iso = np.asarray(namespace["iso"])
    assert capsys.readouterr().out.strip()

    # mtm at omega = 0, p = 0.2: a real pair and an imaginary pair near
    # their small-p predictions, every value clear of the bands
    bands = continuous_bands("mtm", 0.0, 0.2)
    assert np.all(bands.distance(iso) > default_margin(bands))
    pred = asymptotic_prediction("mtm", 0.0, with_corrections=False)
    for target in (0.2 * pred.lambda_r, 0.2j * pred.lambda_i):
        for lam in (target, -target):
            assert np.min(np.abs(iso - lam)) <= 0.05 * abs(target)
