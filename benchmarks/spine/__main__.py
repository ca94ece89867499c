import sys

from benchmarks.spine.cli import main

sys.exit(main())
