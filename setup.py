import py_compile

from setuptools import setup
from setuptools.command.build_py import build_py


class build_py_with_bytecode(build_py):
    """``build_py`` that also writes each built module's ``.pyc`` into the build.

    A short command spends most of its time starting the interpreter and
    importing, and where bytecode cannot be written at run time (under
    ``PYTHONDONTWRITEBYTECODE`` or in a read-only install directory) every
    process would otherwise compile the whole package from source.
    ``py_compile`` writes the file even when ``sys.dont_write_bytecode`` is
    set; the stock ``byte_compile`` step skips it then. An editable install
    builds nothing here, so it compiles nothing.
    """

    def run(self):
        super().run()
        if self.editable_mode:
            return
        for path in self.get_outputs(include_bytecode=False):
            if path.endswith(".py"):
                py_compile.compile(path, doraise=True)


setup(cmdclass={"build_py": build_py_with_bytecode})
