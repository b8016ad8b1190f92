"""One module per CLI verb, each with ``run(args) -> Result``.

``cli.run`` imports only the module of the verb it runs, so a call compiles
one handler, not ten.
"""
