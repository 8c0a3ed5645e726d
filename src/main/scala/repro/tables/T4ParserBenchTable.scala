package repro.tables

import org.apache.spark.sql.SparkSession

import repro.logs.LogSynth
import repro.logs.LogSynth.SynthConfig

/** T4 — online log-parser benchmark and automation limits (§IV).
  *
  * Part A compares Drain, Spell and the distributed Drain on each
  * source's corpus with both metrics: grouping accuracy (the reference
  * metric) and the paper's token-level metric (Eq. 1).
  *
  * Part B is the automation-limit study: Drain's grouping accuracy over
  * a (depth × simThreshold) grid on the mixed corpus — the spread shows
  * why Drain "cannot be deployed in an unknown system with a high level
  * of confidence" without tuning.
  *
  * Paper expectation (Zhu et al. [10]): Drain is the best online parser
  * (≈0.9 average grouping accuracy in the literature), Spell below it,
  * and hyper-parameter choice moves accuracy substantially.
  */
object T4ParserBenchTable {

  final case class RowA(corpus: String, parser: String, scores: ParserHarness.Scores,
                        trueTemplates: Int)
  final case class RowB(depth: Int, st: Double, groupingAccuracy: Double)

  val Corpora: Seq[String] = Seq("network", "storage", "compute", "auth", "hdfs", "mixed")

  private def corpusFor(spark: SparkSession, name: String, nSessions: Long,
                        seed: Long) = name match {
    case "mixed" => LogSynth.cloud(spark, nSessions, anomalyRate = 0.02, seed, payloadProb = 0.0)
    case src => LogSynth.generate(spark,
      SynthConfig(Seq(src), nSessions, anomalyRate = 0.02, payloadProb = 0.0, seed = seed))
  }

  def runA(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[RowA] =
    Corpora.flatMap { name =>
      // the distributed run reads the persisted frame: its repartition
      // follows the input's partitioning
      val corpus = corpusFor(spark, name, nSessions, seed).persist()
      val lines  = corpus.collect().sortBy(_.lineId).toSeq
      val msgs   = lines.map(l => (l.lineId, l.message))
      val nTrue  = lines.map(_.templateId).distinct.size
      def row(parser: String, outcome: ParserHarness.Outcome) =
        RowA(name, parser, ParserHarness.score(outcome, lines, withPayload = false), nTrue)
      val rows = Seq(
        row("Drain(4,0.5)", ParserHarness.runDrain(msgs)),
        row("Spell(0.5)", ParserHarness.runSpell(msgs)),
        row("DistDrain(4,0.5,p8)",
          ParserHarness.runDistributed(corpus.toDF().select("lineId", "message"))),
      )
      corpus.unpersist()
      rows
    }

  def runB(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[RowB] = {
    val lines = corpusFor(spark, "mixed", nSessions, seed).collect().sortBy(_.lineId).toSeq
    val msgs  = lines.map(l => (l.lineId, l.message))
    for {
      depth <- Seq(3, 4, 5)
      st    <- Seq(0.3, 0.5, 0.7)
    } yield RowB(depth, st, ParserHarness.score(ParserHarness.runDrain(msgs, depth, st), lines,
                                                withPayload = false).groupingAccuracy)
  }

  def renderA(rows: Seq[RowA]): String =
    TableFmt.render(
      "T4a — online parsers per corpus (grouping accuracy / token accuracy Eq.1)",
      Seq("corpus", "parser", "grouping acc", "token acc", "templates", "true"),
      rows.map(r => Seq(r.corpus, r.parser, TableFmt.f3(r.scores.groupingAccuracy),
                        TableFmt.f3(r.scores.tokenAccuracy),
                        r.scores.numTemplates.toString, r.trueTemplates.toString)),
    )

  def renderB(rows: Seq[RowB]): String = {
    val accs = rows.map(_.groupingAccuracy)
    TableFmt.render(
      "T4b — Drain hyper-parameter sensitivity on the mixed corpus " +
        f"(spread ${accs.max - accs.min}%.3f)",
      Seq("depth", "simThreshold", "grouping acc"),
      rows.map(r => Seq(r.depth.toString, TableFmt.f2(r.st),
                        TableFmt.f3(r.groupingAccuracy))),
    )
  }
}
