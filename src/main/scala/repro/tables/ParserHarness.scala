package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.logs.LogModel.LogLine
import repro.parse.{DistributedDrain, Drain, ParserEval, Spell, TemplateOps}

/** Driver for the parser experiments: runs a parser over a corpus in
  * arrival order and scores it with both §IV metrics.
  */
object ParserHarness {

  /** A parser run: per-line assignment plus the final template table. */
  final case class Outcome(assignments: Seq[(Long, Int)], templates: Map[Int, Vector[String]])

  /** Per-corpus scores. */
  final case class Scores(groupingAccuracy: Double, tokenAccuracy: Double, numTemplates: Int)

  /** Online single-node parse in lineId (arrival) order. */
  def runOnline(messages: Seq[(Long, String)], parseOne: String => Int,
                templates: () => Map[Int, Vector[String]]): Outcome = {
    val assign = messages.sortBy(_._1).map { case (id, msg) => (id, parseOne(msg)) }
    Outcome(assign, templates())
  }

  def runDrain(messages: Seq[(Long, String)], depth: Int = 4, st: Double = 0.5): Outcome = {
    val d = new Drain(depth, st)
    runOnline(messages, d.parse, () => d.templates)
  }

  def runSpell(messages: Seq[(Long, String)], tau: Double = 0.5): Outcome = {
    val s = new Spell(tau)
    runOnline(messages, s.parse, () => s.templates)
  }

  /** Distributed run, as T4a's "DistDrain(4,0.5,p8)"; assignments are
    * collected for uniform scoring.
    */
  def runDistributed(spark: SparkSession, messages: DataFrame): Outcome = {
    val res = DistributedDrain.parse(messages, depth = 4, simThreshold = 0.5, numPartitions = 8)
    val assign = res.assignments.collect().map(r => (r.getLong(0), r.getInt(1))).toSeq
    res.assignments.unpersist()
    Outcome(assign, res.templates)
  }

  /** Score an outcome against ground truth.
    *
    * @param truth columns `lineId`, `trueId`, `trueTemplate`
    */
  def score(spark: SparkSession, outcome: Outcome, truth: DataFrame): Scores = {
    import spark.implicits._
    val assignDf = outcome.assignments.toDF("lineId", "templateId")
    val grouping = ParserEval.groupingAccuracy(assignDf, truth.select(col("lineId"), col("trueId")))
    val perLine = outcome.assignments.map { case (id, tid) =>
      (id, outcome.templates.get(tid).map(TemplateOps.render).getOrElse(""))
    }.toDF("lineId", "predTemplate")
      .join(truth.select(col("lineId"), col("trueTemplate")), "lineId")
    val token = ParserEval.tokenAccuracy(perLine)
    Scores(grouping, token, outcome.templates.size)
  }

  /** Ground-truth frame for a corpus; `withPayload` selects whether the
    * expected template covers the full message or only the core text.
    */
  def truthFrame(corpus: DataFrame, withPayload: Boolean): DataFrame =
    corpus.select(
      col("lineId"),
      col("templateId") as "trueId",
      (if (withPayload) col("templateWithPayload") else col("template")) as "trueTemplate",
    )

  /** Corpus messages as (lineId, message) pairs in arrival order. */
  def collectMessages(corpus: DataFrame): Seq[(Long, String)] =
    corpus.select(col("lineId"), col("message")).collect()
      .map(r => (r.getLong(0), r.getString(1))).sortBy(_._1).toSeq
}
