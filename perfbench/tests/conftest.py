import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's own modules, then the program they measure
sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(HERE.parents[1] / "src"))
