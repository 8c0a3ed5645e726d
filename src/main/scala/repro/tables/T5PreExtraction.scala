package repro.tables

import org.apache.spark.sql.SparkSession

import repro.logs.LogSynth
import repro.parse.Preprocess

/** T5 — structured-payload pre-extraction (§IV): the paper observed that
  * ~60 % of message tokens in API-like services come from JSON/XML data
  * concatenated to the free text, and recommends extracting it before
  * parsing. This table parses the payload-bearing cloud corpus with and
  * without the pre-extraction step and reports both metrics plus the
  * mined-template blow-up, along with the measured payload token share.
  *
  * Paper expectation: pre-extraction substantially raises both accuracy
  * metrics and collapses the spurious template count.
  */
object T5PreExtraction {

  final case class Row(condition: String, scores: ParserHarness.Scores, trueTemplates: Int)
  final case class Result(payloadTokenShare: Double, rows: Seq[Row])

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Result = {
    val lines = LogSynth.cloud(spark, nSessions, anomalyRate = 0.02, seed, payloadProb = 0.7)
      .collect().sortBy(_.lineId).toSeq

    // measured share of tokens contributed by the structured payload
    val (payloadToks, totalToks) = lines.foldLeft((0L, 0L)) { case ((p, t), l) =>
      val (core, payload) = Preprocess.extractStructured(l.message)
      val pl = payload.map(s => Preprocess.tokenize(s).size).getOrElse(0)
      (p + pl, t + pl + Preprocess.tokenize(core).size)
    }

    val nTrue = lines.map(_.templateId).distinct.size

    // raw condition: the parser sees the concatenated message
    val rawMsgs = lines.map(l => (l.lineId, l.message))
    val raw     = ParserHarness.score(ParserHarness.runDrain(rawMsgs), lines, withPayload = true)

    // pre-extracted condition: structured data stripped before parsing
    val coreMsgs = rawMsgs.map { case (id, m) => (id, Preprocess.extractStructured(m)._1) }
    val core     = ParserHarness.score(ParserHarness.runDrain(coreMsgs), lines, withPayload = false)

    Result(payloadToks.toDouble / totalToks,
           Seq(Row("raw message", raw, nTrue), Row("pre-extracted", core, nTrue)))
  }

  def render(res: Result): String =
    TableFmt.render(
      "T5 — Drain with/without structured-data pre-extraction " +
        s"(payload token share ${TableFmt.pct(res.payloadTokenShare)})",
      Seq("condition", "grouping acc", "token acc", "templates", "true"),
      res.rows.map(r => Seq(r.condition, TableFmt.f3(r.scores.groupingAccuracy),
                            TableFmt.f3(r.scores.tokenAccuracy),
                            r.scores.numTemplates.toString, r.trueTemplates.toString)),
    )
}
