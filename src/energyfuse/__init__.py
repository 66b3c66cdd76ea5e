"""Energy-based feature fusion between segmentation and depth, with
reliability-masked distillation, on deterministic synthetic scenes."""

# bench/setup_probe.py calls these two after `import energyfuse`; every
# other name is imported from its submodule
from .metrics import build_data, build_model
