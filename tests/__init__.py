"""Unit-test package (a regular package, so test modules import under
package-qualified names such as ``tests.test_cli``)."""
