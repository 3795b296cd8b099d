"""Walkthrough: the batch CLI end to end in a temporary directory.

synth -> inspect -> train -> preview -> refine -> inspect -> profile, then a manifest
replay to show runs are byte-for-byte reproducible.
"""

import os
import tempfile

from vidflow.cli import main, replay_manifest

tmp = tempfile.mkdtemp(prefix="vidflow_demo_")
data = os.path.join(tmp, "data.lgr")  # one grid: the 8 clips along its batch axis
ckpt = os.path.join(tmp, "refiner.lgr")
prev = os.path.join(tmp, "preview.lgr")
refined = os.path.join(tmp, "refined.lgr")
frames = os.path.join(tmp, "frames")

fast_train = [
    "--set", "phase1_iters=30", "--set", "phase2_iters=20",
    "--set", "phase1_frames=3", "--set", "phase2_frames=4",
    "--set", "lr=0.005",
]

steps = [
    ["synth", "--set", f"out={data}", "--set", "count=8",
     "--set", "frames=6", "--set", "height=8", "--set", "width=8"],
    ["inspect", data],
    ["train", "--set", f"dataset={data}", "--set", f"out={ckpt}", *fast_train],
    ["preview", "--set", f"checkpoint={ckpt}", "--set", f"out={prev}",
     "--set", "n_total=12", "--set", "k=3",
     "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4"],
    ["refine", "--set", f"checkpoint={ckpt}", "--set", f"preview={prev}",
     "--set", f"out={refined}", "--set", f"frames_dir={frames}", "--set", "n_steps=4"],
    ["inspect", refined],
    ["profile", "--set", f"out={os.path.join(tmp, 'profile.csv')}"],
]
for argv in steps:
    print(f"\n$ vidflow {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"exit code {code}"

# every run writes a manifest next to its output; replaying one reproduces
# the output byte for byte
replayed = os.path.join(tmp, "preview_replay.lgr")
replay_manifest(prev + ".manifest", {"out": replayed})
with open(prev, "rb") as a, open(replayed, "rb") as b:
    identical = a.read() == b.read()
print(f"\nmanifest replay byte-identical: {identical}")
print(f"artifacts left in {tmp}")
