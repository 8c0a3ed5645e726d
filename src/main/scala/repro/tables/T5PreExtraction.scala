package repro.tables

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

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

  def run(spark: SparkSession, nSessions: Long = 800, seed: Long = 42L): Result = {
    import spark.implicits._
    val corpus = LogSynth.cloud(spark, nSessions, anomalyRate = 0.02, seed, payloadProb = 0.7)
      .toDF().persist()

    // measured share of tokens contributed by the structured payload
    val (payloadToks, totalToks) = corpus.select(col("message")).as[String]
      .map { msg =>
        val (core, payload) = Preprocess.extractStructured(msg)
        val p = payload.map(s => Preprocess.tokenize(s).size).getOrElse(0)
        (p, p + Preprocess.tokenize(core).size)
      }
      .toDF("p", "t").agg(sum("p"), sum("t")).as[(Long, Long)].head()

    val nTrue = corpus.select("templateId").distinct().count().toInt

    // raw condition: the parser sees the concatenated message
    val rawMsgs  = ParserHarness.collectMessages(corpus)
    val rawTruth = ParserHarness.truthFrame(corpus, withPayload = true)
    val raw      = ParserHarness.score(spark, ParserHarness.runDrain(rawMsgs), rawTruth)

    // pre-extracted condition: structured data stripped before parsing
    val coreMsgs  = rawMsgs.map { case (id, m) => (id, Preprocess.extractStructured(m)._1) }
    val coreTruth = ParserHarness.truthFrame(corpus, withPayload = false)
    val core      = ParserHarness.score(spark, ParserHarness.runDrain(coreMsgs), coreTruth)

    corpus.unpersist()
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
