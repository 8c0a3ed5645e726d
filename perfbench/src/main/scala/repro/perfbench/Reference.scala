package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8

import repro.classify.PoolClassifier
import repro.core.Metrics
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{AnomalyReport, EventRec, Models, ParsedEvent, RawLog, SeqRow}

/** Single-thread, Spark-free reference of the Figure-1 dataflow.
  *
  * It calls the same per-record kernels as the pipeline (`parseOne`,
  * `detectOne`, the classifier) but does the structuring step itself:
  * group by (source, sessionId), order events as Spark's `sort_array`
  * orders `struct(ts, templateId, vars)`, and cut a session wherever two
  * consecutive events are more than `gapMs` apart (`session_window` merges
  * windows that touch). Every timed operation of
  * the benchmark must reproduce its report set exactly.
  */
object Reference {

  /** Reports the pipeline must emit for `lines`, in canonical order. */
  def reports(models: Models, classifier: PoolClassifier, lines: Iterable[RawLog],
              gapMs: Long = 5000L): Vector[AnomalyReport] =
    canonical(sessions(lines.map(MoniLogPipeline.parseOne(models, _)), gapMs)
      .flatMap(MoniLogPipeline.detectOne(models, _))
      .map(classify(classifier, _)))

  /** Step 2 on one thread: per-key, gap-cut, `sort_array`-ordered sequences. */
  def sessions(parsed: Iterable[ParsedEvent], gapMs: Long): Vector[SeqRow] =
    parsed.groupBy(e => (e.source, e.sessionId)).toVector.flatMap { case ((src, sid), evs) =>
      val sorted = evs.toVector.map(e => EventRec(e.ts, e.templateId, e.vars)).sortWith(eventLess)
      val cuts = sorted.indices.filter(i =>
        i == 0 || sorted(i).ts.getTime - sorted(i - 1).ts.getTime > gapMs) :+ sorted.size
      cuts.sliding(2).collect { case Seq(a, b) =>
        val evts = sorted.slice(a, b)
        SeqRow(evts.head.ts, src, sid, evts)
      }
    }

  def classify(classifier: PoolClassifier, r: AnomalyReport): AnomalyReport = {
    val (pool, crit) = classifier.classify(
      PoolClassifier.ReportFeatures(r.source, r.kind, r.events.distinct))
    r.copy(pool = pool, criticality = crit)
  }

  /** Reports sorted by session key, so two report sets compare with `==`. */
  def canonical(reports: Iterable[AnomalyReport]): Vector[AnomalyReport] =
    reports.toVector.sortBy(r => (r.source, r.sessionId, r.windowStart.getTime, r.kind))

  /** Sessions with a report against sessions injected anomalous. */
  def sessionScore(reports: Iterable[AnomalyReport],
                   anomalous: collection.Map[(String, String), Boolean]): Metrics.PRF = {
    val flagged = reports.iterator.map(r => (r.source, r.sessionId)).toSet
    Metrics.score(anomalous.toSeq.map { case (k, a) => (flagged(k), a) })
  }

  /** Spark's ordering of `struct(ts, templateId, vars)`: field by field,
    * arrays element-wise then by length, strings by unsigned UTF-8 bytes.
    */
  private def eventLess(a: EventRec, b: EventRec): Boolean = {
    val t = a.ts.compareTo(b.ts)
    if (t != 0) t < 0
    else if (a.templateId != b.templateId) a.templateId < b.templateId
    else compareArrays(a.vars, b.vars) < 0
  }

  private def compareArrays(a: Seq[String], b: Seq[String]): Int = {
    val n = math.min(a.size, b.size)
    var i = 0
    while (i < n) {
      val c = compareUtf8(a(i), b(i))
      if (c != 0) return c
      i += 1
    }
    Integer.compare(a.size, b.size)
  }

  private def compareUtf8(a: String, b: String): Int =
    java.util.Arrays.compareUnsigned(a.getBytes(UTF_8), b.getBytes(UTF_8))
}
