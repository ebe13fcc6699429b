"""Benchmark harness for covertnet: seeded inputs, output oracles, span tracing.

The harness drives whole CLI commands in-process through
``covertnet.cli.main(argv)``; nothing in it is imported by the package.
"""
