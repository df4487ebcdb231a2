"""Run configuration: sectioned key/value files with env-var overrides.

Files use INI syntax.  Any value can be overridden from the environment
as SPINSC_<SECTION>__<KEY> (section and key upper-cased).  The resolved
configuration is embedded verbatim in the run manifest so a rerun does
not depend on the original file or environment.
"""

import configparser
import os

from .errors import ConfigError

ENV_PREFIX = "SPINSC_"

__all__ = ["ENV_PREFIX", "load_config", "ConfigView"]


def load_config(path, environ=None) -> dict:
    """Parse the file into {section: {key: raw-string}} with env overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    environ = os.environ if environ is None else environ
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        section, key = name[len(ENV_PREFIX):].split("__", 1)
        cfg.setdefault(section.lower(), {})[key.lower()] = value
    return cfg


class ConfigView:
    """Typed access into a resolved config dict with contextual errors."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.read = set()       # each (section, key) asked for

    _MISSING = object()

    def _raw(self, section, key, default):
        self.read.add((section, key))
        try:
            return self.cfg[section][key]
        except KeyError:
            if default is not self._MISSING:
                return default
            raise ConfigError(f"missing config entry [{section}] {key}") from None

    def _typed(self, section, key, cast, default):
        raw = self._raw(section, key, default)
        if raw is default and not isinstance(raw, str):
            return raw
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad value for [{section}] {key}: {raw!r}") from None

    def get_str(self, section, key, default=_MISSING) -> str:
        return self._typed(section, key, str, default)

    def get_int(self, section, key, default=_MISSING) -> int:
        return self._typed(section, key, lambda s: int(str(s), 0), default)

    def get_float(self, section, key, default=_MISSING) -> float:
        return self._typed(section, key, float, default)

    def get_float_list(self, section, key, default=_MISSING) -> list:
        def cast(s):
            return [float(tok) for tok in str(s).replace(",", " ").split()]
        return self._typed(section, key, cast, default)

    def get_int_list(self, section, key, default=_MISSING) -> list:
        def cast(s):
            return [int(tok) for tok in str(s).replace(",", " ").split()]
        return self._typed(section, key, cast, default)
