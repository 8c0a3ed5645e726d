package repro.parse

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
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

  /** The collect-over-indices form the while loop replaced. */
  private def referenceExtractVars(template: Seq[String], tokens: Seq[String]): Seq[String] =
    template.indices.collect {
      case i if template(i) == "<*>" && i < tokens.length => tokens(i)
    }

  test("extractVars equals the index-collect reference on mismatched lengths") {
    val tok = Gen.oneOf("<*>", "a", "b", "42", "")
    val pair = for {
      template <- Gen.choose(0, 7).flatMap(Gen.listOfN(_, tok))
      ends     <- Gen.oneOf(Seq("<*>") -> Seq(), Seq() -> Seq("<*>"), Seq("<*>") -> Seq("<*>"),
                            Seq() -> Seq())
      tokens   <- Gen.choose(0, 9).flatMap(Gen.listOfN(_, tok))
    } yield ((ends._1 ++ template ++ ends._2).toVector, tokens.toVector)
    val prop = Prop.forAllNoShrink(pair) { case (template, tokens) =>
      val got = TemplateOps.extractVars(template, tokens)
      Prop(got == referenceExtractVars(template, tokens)) :| s"$template / $tokens → $got"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500)
                              .withInitialSeed(Seed(29L)), prop)
    assert(result.passed, result.status)
    // both directions of a length mismatch, with a wildcard at either end
    for ((template, tokens) <- Seq(
           Seq("<*>", "a", "<*>") -> Seq("x"),
           Seq("<*>", "a", "<*>") -> Seq("x", "a", "y", "z"),
           Seq("a", "<*>") -> Seq(),
           Seq() -> Seq("x")))
      assert(TemplateOps.extractVars(template, tokens) == referenceExtractVars(template, tokens))
  }
}
