"""Packaging shim: builds the optional compiled placement kernels when it can.

The extension (``repro._native._coreext``) is a pure accelerator — the
framework is fully functional without it — so a failed build must never
fail the install.  Any compiler error degrades to a warning and the
pure-Python core remains the (bit-identical) implementation in use.
Build it later with ``python -m repro._native.build``.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the core extension if possible; warn instead of failing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, headers absent, ...
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "warning: could not build the optional compiled DES core "
            f"({exc}); falling back to the pure-Python core. "
            "Build it later with `python -m repro._native.build`.",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "repro._native._coreext",
            sources=["src/repro/_native/_coreext.c"],
            optional=True,
            extra_compile_args=["-O2", "-fno-strict-aliasing"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
