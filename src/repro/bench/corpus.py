"""The benchmark corpus: one synthetic stand-in per Table 1 program.

Each entry records the paper's reported numbers (KLOC, pointer count,
cluster counts/sizes/times) alongside a :class:`SynthConfig` calibrated
to reproduce the *relationships* between them: relative program sizes,
the size of the largest Steensgaard partition, and how much Andersen
clustering shrinks it (a lot for ``sendmail``, almost nothing for
``mt-daapd``).

``scale`` shrinks every program proportionally so the whole Table 1 run
finishes in CI time on CPython; the harness reports ratios, which is
what EXPERIMENTS.md compares.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .synth import SynthConfig, SynthProgram, generate


@dataclass(frozen=True)
class PaperRow:
    """Table 1's reported numbers for one benchmark."""

    name: str
    kloc: float
    pointers: int
    time_nocluster: Optional[float]   # None == "> 15min" timeout
    steens_clusters: int
    steens_max: int
    time_steens: float
    andersen_clusters: int
    andersen_max: int
    time_andersen: float


#: Table 1, transcribed from the paper (times in seconds).
PAPER_TABLE1: List[PaperRow] = [
    PaperRow("sock", 0.9, 1089, 0.11, 517, 9, 0.03, 539, 6, 0.01),
    PaperRow("hugetlb", 1.2, 3607, 8, 1091, 45, 0.7, 1290, 11, 0.78),
    PaperRow("ctrace", 1.4, 377, 0.07, 47, 36, 0.03, 193, 6, 0.03),
    PaperRow("autofs", 8.3, 3258, 6.48, 589, 125, 0.52, 907, 27, 0.92),
    PaperRow("plip", 14, 3257, 6.51, 568, 26, 0.57, 761, 14, 0.62),
    PaperRow("ptrace", 15, 9075, 16, 924, 96, 1.46, 5941, 18, 0.67),
    PaperRow("raid", 17, 814, 0.12, 100, 129, 0.03, 192, 26, 0.03),
    PaperRow("jfs_dmap", 17, 14339, 510, 4190, 39, 3.62, 9214, 11, 1.34),
    PaperRow("tty_io", 18, 2675, 22, 828, 8, 0.52, 882, 6, 0.45),
    PaperRow("ipoib_multicast", 26, 2888, 54.7, 1167, 15, 1, 1378, 9, 0.5),
    PaperRow("wavelan_ko", 20, 3117, 17.68, 591, 44, 1.2, 744, 19, 1),
    PaperRow("pico", 22, 1903, None, 484, 171, 4.98, 871, 102, 4.46),
    PaperRow("synclink", 24, 16355, None, 1237, 95, 26.85, 3503, 93, 26),
    PaperRow("icecast", 49, 7490, 459, 964, 114, 15, 2553, 52, 15),
    PaperRow("freshclam", 54, 1991, None, 157, 77, 0.6, 740, 45, 0.44),
    PaperRow("mt_daapd", 92, 4008, None, 635, 89, 4.8, 1118, 83, 12.79),
    PaperRow("sigtool", 95, 5881, None, 552, 151, 8, 981, 147, 7),
    PaperRow("clamd", 101, 16639, 61, 1274, 346, 49, 3915, 187, 41),
    PaperRow("sendmail", 115, 65134, 4560, 21088, 596, 187.8, 24580, 193, 138.9),
    PaperRow("httpd", 128, 16180, None, 1779, 199, 35, 3893, 152, 32),
]

PAPER_BY_NAME: Dict[str, PaperRow] = {r.name: r for r in PAPER_TABLE1}

#: Programs the paper highlights in its narrative.
HIGHLIGHTS = ("sendmail", "mt_daapd", "autofs")


def _config_for(row: PaperRow, scale: float) -> SynthConfig:
    pointers = max(40, int(row.pointers * scale))
    # Largest-partition fraction and refinement behaviour from the paper's
    # reported numbers.
    hub_fraction = min(0.6, max(0.05, row.steens_max / row.pointers * 3))
    # Overlap is the target refinement ratio, read straight off Table 1:
    # max Andersen cluster / max Steensgaard partition (mt-daapd: 83/89 ≈
    # 0.93 -> clustering can't refine; sendmail: 193/596 ≈ 0.32).
    overlap = (row.andersen_max / row.steens_max) if row.steens_max else 0.5
    functions = max(4, int(row.kloc * 2 * max(scale * 4, 0.2)))
    return SynthConfig(
        name=row.name,
        pointers=pointers,
        functions=min(functions, 60),
        kloc=row.kloc,
        hub_fractions=(hub_fraction,),
        overlap=overlap,
        lock_count=2 if row.kloc >= 8 else 1,
        fp_sites=1 if row.kloc >= 15 else 0,
        # Struct-heavy programs carry write-mostly per-field registry
        # cells (normalize.py's flattening shape); scale the count with
        # program size so the field-sensitive clustering stage has the
        # oversharing pattern it exists to split.
        field_webs=max(2, pointers // 60) if row.kloc >= 8 else 0,
        # zlib.crc32, not hash(): str hashing is salted by PYTHONHASHSEED,
        # which made every interpreter generate a *different* corpus
        # program for the same name — unreproducible benches and a
        # worthless cross-process differential suite.
        seed=zlib.crc32(row.name.encode("utf-8")) % (2 ** 31),
    )


def corpus_configs(scale: float = 0.1,
                   names: Optional[List[str]] = None) -> List[SynthConfig]:
    """Configs for the (optionally filtered) corpus at ``scale``."""
    rows = PAPER_TABLE1 if names is None else \
        [PAPER_BY_NAME[n] for n in names]
    return [_config_for(r, scale) for r in rows]


def build(name: str, scale: float = 0.1) -> SynthProgram:
    """Build one corpus program by its Table 1 name."""
    return generate(_config_for(PAPER_BY_NAME[name], scale))


def fp_heavy_config(scale: float = 0.1) -> SynthConfig:
    """A function-pointer-dense workload (ROADMAP item 5's leftover).

    Modeled on callback-table programs (icecast/mt-daapd style): many
    indirect call sites whose generator-sampled targets are recorded as
    :attr:`SynthProgram.fp_truth`, so benches can check that the
    Andersen and cut-shortcut stages resolve each site to exactly the
    seeded callee set.
    """
    pointers = max(60, int(4000 * scale))
    return SynthConfig(
        name="fp_heavy",
        pointers=pointers,
        functions=24,
        kloc=30.0,
        hub_fractions=(0.12,),
        overlap=0.4,
        lock_count=1,
        fp_sites=max(4, pointers // 40),
        field_webs=max(2, pointers // 80),
        seed=zlib.crc32(b"fp_heavy") % (2 ** 31),
    )


def fp_heavy(scale: float = 0.1) -> SynthProgram:
    """Build the fp-heavy workload at ``scale``."""
    return generate(fp_heavy_config(scale))
