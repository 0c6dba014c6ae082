"""Set-up probe: import the CLI, load a config and build its Problem, then
stop before any command runs.

    python -m perfbench.setup_probe <config>    # set-up only
    python -m perfbench.setup_probe --env       # import only; print versions as JSON
"""

from __future__ import annotations

import sys


def environment() -> dict:
    import numpy
    import parctrl
    import scipy

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas", {}),
        "lapack": build.get("lapack", {}),
        "parctrl_file": parctrl.__file__,
    }


def main() -> int:
    import parctrl.cli  # noqa: F401  (import cost is part of set-up)
    from parctrl import config

    if sys.argv[1] == "--env":
        import json

        print(json.dumps(environment()))
    else:
        config.build_problem(config.load_config(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
