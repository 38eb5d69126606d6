"""The benchmark's workloads: which input, which CLI flags, which outputs.

Every workload writes a metrics report per (t, isovalue) combination, so
each one can be checked against the reference. File names follow the
CLI's rule: with several combinations it suffixes _t<t>_iso<iso>, and a
volume with several times gets _t<t>.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # key of inputs.SPECS, or "fixture" for the three-atom file
    args: tuple[str, ...]
    times: tuple[str, ...]
    isovalues: tuple[str, ...]
    mesh: bool
    volume: bool
    why: str

    @property
    def combos(self) -> list[str]:
        if len(self.times) == 1 and len(self.isovalues) == 1:
            return [""]
        return [f"_t{t}_iso{iso}" for t in self.times for iso in self.isovalues]

    @property
    def outputs(self) -> list[str]:
        names = []
        for combo in self.combos:
            names.append(f"x{combo}.txt")
            if self.mesh:
                names.append(f"x{combo}.obj")
        if self.volume:
            if len(self.times) == 1:
                names.append("x.dx")
            else:
                names += [f"x_t{t}.dx" for t in self.times]
        return names

    def cli_args(self, input_path: str) -> list[str]:
        argv = ["--input", input_path, *self.args]
        for t in self.times:
            argv += ["--time", t]
        for iso in self.isovalues:
            argv += ["--isovalue", iso]
        if self.mesh:
            argv += ["--mesh-out", "x.obj"]
        if self.volume:
            argv += ["--volume-out", "x.dx"]
        return argv + ["--metrics-out", "x.txt"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-fine",
            spec="G300",
            args=("--spacing", "0.25", "--padding", "5", "--order", "12"),
            times=("100",),
            isovalues=("0.9",),
            mesh=True,
            volume=True,
            why="README default command on G300 at 135^3; the only volume writer, "
            "so OpenDX export leads, then marching cubes and the filter",
        ),
        Workload(
            name="peel-gauss",
            spec="G300",
            args=("--init", "gaussian", "--spacing", "0.3", "--passes", "3"),
            times=("100",),
            isovalues=("0.8",),
            mesh=False,
            volume=False,
            why="gaussian init with 3 peel-off passes on G300 at 112^3; filter-heavy "
            "and the only workload where rasterization matters",
        ),
        Workload(
            name="sweep-3000",
            # d_6 = h^12 at h = 0.6, the README's scaled regime
            spec="G3000",
            args=("--spacing", "0.6", "--dcoeff", "6:2.176782336e-03"),
            times=("300", "3000"),
            isovalues=("0.6", "0.9"),
            mesh=True,
            volume=False,
            why="2x2 time/isovalue sweep on G3000 at 108^3; extraction-heavy, and "
            "the only workload sharing one forward spectrum across times",
        ),
    )
}

# three-atom fixture at coarse spacing; touches every traced span
SELF_CHECK = Workload(
    name="self-check",
    spec="fixture",
    args=("--spacing", "0.5", "--passes", "2"),
    times=("100", "200"),
    isovalues=("0.9",),
    mesh=True,
    volume=True,
    why="quick check that every metric is produced and the outputs pass",
)
