#!/usr/bin/env python3
"""Regenerate the LIBSVM fixtures bundled under datasets/.

Features are rounded to four decimals so the files stay small while still
round-tripping exactly through the parser.
"""

from pathlib import Path

import numpy as np

from vrkit import Dataset, SyntheticSpec, gen_separable, serialize_libsvm

FIXTURES = {
    "synth_a.libsvm": SyntheticSpec(n=1500, d=30, mislabel_fraction=0.05, margin=0.1, seed=101),
    "synth_b.libsvm": SyntheticSpec(n=2000, d=40, mislabel_fraction=0.15, margin=0.1, seed=202),
}


def fixture_text(spec: SyntheticSpec) -> str:
    """The LIBSVM text of the fixture drawn from ``spec``."""
    dataset, _ = gen_separable(spec)
    rounded = np.round(dataset.features.toarray(), 4)
    return serialize_libsvm(Dataset(features=rounded, labels=dataset.labels))


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "datasets"
    out_dir.mkdir(exist_ok=True)
    for name, spec in FIXTURES.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="") as handle:
            handle.write(fixture_text(spec))
        print(f"wrote {out_dir / name}")


if __name__ == "__main__":
    main()
