package repro.parse

import org.scalatest.funsuite.AnyFunSuite

class TemplateOpsSpec extends AnyFunSuite {

  test("extractVars picks tokens at wildcard positions") {
    assert(TemplateOps.extractVars(
      Seq("Sending", "<*>", "bytes", "to", "<*>"),
      Seq("Sending", "42", "bytes", "to", "10.0.0.1")) == Seq("42", "10.0.0.1"))
  }

  test("extractVars with no wildcards is empty") {
    assert(TemplateOps.extractVars(Seq("a", "b"), Seq("a", "b")).isEmpty)
  }

  test("extractVars tolerates a shorter message") {
    assert(TemplateOps.extractVars(Seq("a", "<*>", "<*>"), Seq("a", "x")) == Seq("x"))
  }

  test("extractVars ignores extra message tokens") {
    assert(TemplateOps.extractVars(Seq("a", "<*>"), Seq("a", "x", "y", "z")) == Seq("x"))
  }

  test("render joins with single spaces") {
    assert(TemplateOps.render(Seq("a", "<*>", "c")) == "a <*> c")
  }

  test("extractVars composes with Drain mining") {
    val d = new Drain()
    val id = d.parse("job 17 done in 42 ms")
    d.parse("job 18 done in 57 ms")
    val vars = TemplateOps.extractVars(d.templates(id),
                                       Preprocess.tokenize("job 99 done in 3 ms"))
    assert(vars == Seq("99", "3"))
  }
}
