"""``python -m repro.obs.flight <bundle>``: replay a postmortem bundle.

The entry point lives in the package's ``__main__`` because ``repro.obs``
imports :mod:`repro.obs.flight`; runpy would otherwise execute a module
that is already imported, and warn.
"""

import sys

from repro.obs.flight import main

if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
