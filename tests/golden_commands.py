"""The golden commands of ``tests/golden/commands.txt``."""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _read() -> list:
    """(argv, golden file name, exit code) per command line of the list."""
    commands = []
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, golden, *argv = line.split()
            commands.append((argv, golden, int(code)))
    return commands


COMMANDS = _read()
