"""Run the shipped interaction experiments and summarise their outputs.

Each scenario writes CSV time series, SVG plots and a JSON manifest; the
divergent one demonstrates the failure reporting.  The heavyweight
16000-unit run is skipped here by default -- run it through the CLI:

    fpualt run scenarios/fig_p3_unstable.scn --out-dir demo_out
"""

import json
from pathlib import Path

from fpualt import run_scenario

SCEN = Path(__file__).resolve().parent.parent / "scenarios"
OUT = Path("demo_out")

for name in ("fig_p3_forcing", "fig_p5_forcing", "cartoon_bounded",
             "cartoon_forced", "fig_p3_divergent"):
    result = run_scenario(SCEN / f"{name}.scn", OUT / name)
    man = result.manifest
    print(f"{name}: status={man['status']}  steps={man['n_steps']}  "
          f"energy drift={man['energy_drift']:.2e}", end="")
    if man["status"] != "ok":
        print(f"  ({man['message']})", end="")
    print()
    for f in result.files:
        print(f"    {f}")

# the forcing run carries a reference-frame copy of the trajectory:
# the acoustic mode oscillates around a depressed mean, starting from rest
ref_csv = OUT / "fig_p3_forcing" / "fig_p3_forcing_trajectory_ref.csv"
rows = ref_csv.read_text().splitlines()
x1 = [float(line.split(",")[1]) for line in rows[1:]]
print(f"\nforced acoustic mode (reference frame): min {min(x1):.4f}, "
      f"max {max(x1):.4f} (starts at 0, driven by the optical square)")

man = json.loads((OUT / "fig_p3_forcing" / "fig_p3_forcing_manifest.json")
                 .read_text())
print("per-mode scales used to map the reference-frame initial data:",
      [round(s, 5) for s in man["reference_frame"]["mode_scales"]])
