# pytester runs a pytest session inside a test (tests/test_session.py)
pytest_plugins = ["pytester"]
