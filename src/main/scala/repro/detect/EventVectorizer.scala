package repro.detect

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Sequence structuring: turns a parsed log stream into the grouped
  * representations the detectors consume (MoniLog step 2 input).
  *
  * Two groupings matter to the paper:
  *   - per-session (the execution flow a sequence model can learn);
  *   - per-time-window (what a mixed multi-source stream offers when no
  *    session key is available — the setting where §III expects LSTM-like
  *    models to degrade).
  */
object EventVectorizer {

  /** A grouped event sequence with its ground-truth label.
    * @param start earliest event time — lets callers split train/test
    *              chronologically, never by source-biased key order
    */
  final case class SessionSeq(key: String, start: java.sql.Timestamp,
                              events: Seq[Int], label: String)

  /** Group parsed lines per session, events ordered by (ts, lineId).
    *
    * @param lines columns `sessionId`, `ts`, `lineId`, `templateId`,
    *              `sessionLabel`
    */
  def bySession(lines: DataFrame): Dataset[SessionSeq] =
    group(lines, Seq(col("sessionId")), col("sessionId"), col("firstTs"))

  /** Group parsed lines per (tumbling time window × optional source),
    * the mixed-stream structuring of experiment T2.
    *
    * @param perSource when true, windows are additionally keyed by
    *                  source (less mixing); when false the window mixes
    *                  every source's events together
    */
  def byWindow(lines: DataFrame, windowDur: String, perSource: Boolean): Dataset[SessionSeq] = {
    val win = window(col("ts"), windowDur)
    group(lines, if (perSource) Seq(win, col("source")) else Seq(win),
          concat_ws("/", col("window.start").cast("string"),
                    if (perSource) col("source") else lit("all")),
          col("window.start"))
  }

  /** One sequence per group of `keyCols`, events ordered by (ts, lineId),
    * labelled "normal" unless a line carries another session label. `key`
    * and `start` are projected over the grouped row, whose `firstTs` is
    * the group's earliest event time.
    */
  private def group(lines: DataFrame, keyCols: Seq[Column], key: Column,
                    start: Column): Dataset[SessionSeq] = {
    val spark = lines.sparkSession
    import spark.implicits._
    lines
      .groupBy(keyCols: _*)
      .agg(
        sort_array(collect_list(struct(col("ts"), col("lineId"), col("templateId")))) as "evs",
        min(col("ts")) as "firstTs",
        max(when(col("sessionLabel") =!= "normal", col("sessionLabel"))
          .otherwise(lit("normal"))) as "label",
      )
      .select(
        key as "key",
        start as "start",
        expr("transform(evs, e -> e.templateId)") as "events",
        col("label"),
      )
      .as[SessionSeq]
  }

  /** Dense count vector over a fixed template vocabulary. */
  def countVector(events: Seq[Int], vocab: Map[Int, Int]): Array[Double] = {
    val v = new Array[Double](vocab.size)
    events.foreach(e => vocab.get(e).foreach(i => v(i) += 1.0))
    v
  }

  /** Vocabulary (template id → dense index) from training sequences. */
  def vocabulary(sequences: Seq[Seq[Int]]): Map[Int, Int] =
    sequences.flatten.distinct.sorted.zipWithIndex.toMap

  /** True when a sequence contains an event outside the vocabulary —
    * counter methods must treat those as anomalous on their own.
    */
  def hasUnknown(events: Seq[Int], vocab: Map[Int, Int]): Boolean =
    events.exists(e => !vocab.contains(e))
}
