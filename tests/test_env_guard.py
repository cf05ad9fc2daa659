"""Run settings are read from the environment in one place only.

:meth:`repro.config.RunSettings.resolve` is the only code that reads a
``REPRO_*`` variable; everything else reads
:func:`repro.config.current_settings`.  This guard fails when
``os.environ`` / ``getenv`` or a quoted ``REPRO_`` literal shows up in
any other module of the package.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

_PACKAGE = Path(repro.__file__).resolve().parent
_PATTERN = re.compile(r"os\.environ|getenv\(|[\"']REPRO_")
#: config.py resolves the settings; the probe copies the environment
#: for the subprocess it launches and reads no variable from it.
_ALLOWED = {"config.py", "verify/probes.py"}


def test_environment_is_read_only_by_run_settings():
    offenders = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        relative = path.relative_to(_PACKAGE).as_posix()
        if relative in _ALLOWED:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _PATTERN.search(line):
                offenders.append(f"{relative}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_guard_sees_the_allowed_readers():
    # A guard that matches nothing anywhere would pass vacuously.
    text = (_PACKAGE / "config.py").read_text()
    assert _PATTERN.search(text)
