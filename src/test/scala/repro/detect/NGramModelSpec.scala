package repro.detect

import scala.collection.mutable

import repro.SparkSpec
import repro.logs.{Instability, LogSynth}
import repro.parse.{Drain, Preprocess}
import repro.stream.MoniLogPipeline.NovelId
import repro.tables.DetectEval

class NGramModelSpec extends SparkSpec {

  private val normal = Seq(
    Seq(1, 2, 3, 4),
    Seq(1, 2, 2, 3, 4),
    Seq(1, 2, 2, 2, 3, 4),
  )

  test("normal sequences are not anomalous") {
    val m = new NGramModel(2, 3).fit(normal)
    normal.foreach(s => assert(!m.isAnomalous(s), s))
  }

  test("an unseen event id is anomalous") {
    val m = new NGramModel(2, 3).fit(normal)
    assert(m.isAnomalous(Seq(1, 2, 99, 3, 4)))
    assert(m.anomalousEvents(Seq(1, 2, 99, 3, 4)).contains(2))
  }

  test("an out-of-flow transition is anomalous") {
    val m = new NGramModel(2, 1).fit(Seq.fill(10)(Seq(1, 2, 3, 4)))
    // 4 never follows 2
    val bad = m.anomalousEvents(Seq(1, 2, 4))
    assert(bad.nonEmpty)
  }

  test("swap of adjacent events is caught") {
    val m = new NGramModel(2, 2).fit(Seq.fill(20)(Seq(1, 2, 3, 4)))
    assert(m.isAnomalous(Seq(1, 3, 2, 4)))
  }

  test("premature termination is caught by end-of-sequence modeling") {
    val m = new NGramModel(2, 2).fit(Seq.fill(20)(Seq(1, 2, 3, 4)))
    // context (1,2) predicts 3, never End → "missing termination" index
    assert(m.anomalousEvents(Seq(1, 2)) == Seq(2))
  }

  test("without checkEnd a truncated prefix passes (plain DeepLog rule)") {
    val m = new NGramModel(2, 2, checkEnd = false).fit(Seq.fill(20)(Seq(1, 2, 3, 4)))
    assert(m.anomalousEvents(Seq(1, 2)).isEmpty)
  }

  test("topG=vocabulary accepts everything seen") {
    val m = new NGramModel(1, 100).fit(normal)
    assert(!m.isAnomalous(Seq(1, 2, 3, 4)))
    assert(!m.isAnomalous(Seq(1, 2, 2, 3, 4)))
  }

  test("topG=1 flags rarer branches") {
    val seqs = Seq.fill(50)(Seq(1, 2, 3)) ++ Seq.fill(2)(Seq(1, 5, 3))
    val m = new NGramModel(1, 1).fit(seqs)
    assert(m.isAnomalous(Seq(1, 5, 3))) // 5 after 1 is not the top-1
    assert(!m.isAnomalous(Seq(1, 2, 3)))
  }

  test("backoff: unseen long context falls back to shorter one") {
    val m = new NGramModel(3, 3).fit(Seq(Seq(1, 2, 3), Seq(7, 2, 3), Seq(9, 2, 3)))
    // context (9,2) unseen at order 2? It was seen. Use a fresh composite:
    // (7,2,3) trained; sequence (1,2,3) has context (1,2) at order 2 — seen.
    assert(!m.isAnomalous(Seq(1, 2, 3)))
  }

  test("empty sequence is never anomalous") {
    val m = new NGramModel(2, 3).fit(normal)
    assert(!m.isAnomalous(Seq.empty))
  }

  test("predict returns top-g candidates ordered deterministically") {
    val m = new NGramModel(1, 2).fit(Seq(Seq(1, 2), Seq(1, 2), Seq(1, 3)))
    val top = m.predict(Seq(1))
    assert(top.contains(Set(2, 3)))
  }

  test("vocabulary collects all trained events") {
    val m = new NGramModel(2, 3).fit(normal)
    assert(m.vocabulary == Set(1, 2, 3, 4))
  }

  test("start-of-sequence context is learned") {
    val m = new NGramModel(2, 1).fit(Seq.fill(10)(Seq(5, 6)))
    // a sequence starting with 6 breaks the start context
    assert(m.isAnomalous(Seq(6, 5)))
    assert(!m.isAnomalous(Seq(5, 6)))
  }

  test("ties at the top-g cut keep the smaller event ids") {
    val m = new NGramModel(1, 2).fit(Seq(Seq(1, 4), Seq(1, 3), Seq(1, 2)))
    assert(m.predict(Seq(1)).contains(Set(2, 3)))
  }

  test("fitting again after a predict changes the prediction") {
    val m = new NGramModel(1, 1).fit(Seq.fill(3)(Seq(1, 2)))
    assert(m.predict(Seq(1)).contains(Set(2)))
    m.fit(Seq.fill(5)(Seq(1, 3)))
    assert(m.predict(Seq(1)).contains(Set(3)))
  }

  // ---- equivalence with the sort-per-call rule on the tables' sequences ----

  private val Settings = Seq((2, 9, true), (1, 1, true), (3, 2, false))

  private def assertSameAsReference(train: Seq[Seq[Int]], probe: Seq[Seq[Int]]): Unit =
    Settings.foreach { case (h, g, end) =>
      val m   = new NGramModel(h, g, end).fit(train)
      val ref = new SortPerCall(h, g, end).fit(train)
      (train ++ probe).foreach { s =>
        assert(m.anomalousEvents(s) == ref.anomalousEvents(s), (h, g, end, s))
        (0 to s.length).foreach(i => assert(m.predict(s.take(i)) == ref.predict(s.take(i)), (h, g, s.take(i))))
      }
    }

  test("frozen top-g equals the sort-per-call rule on T1's sequences") {
    // T1's split: ground-truth ids of the HDFS-like corpus
    val t1 = DetectEval.split(DetectEval.sessionSeqs(LogSynth.hdfsLike(spark, 4000)))
    assert(t1.trainSeqs.nonEmpty)
    assertSameAsReference(t1.trainSeqs, t1.test.map(_.events))
  }

  test("frozen top-g equals the sort-per-call rule on T3's sequences, raw and deduplicated") {
    // T3's recipe: Drain ids of the normal lines of the first 60% of
    // sessions; the rest with 20% instability, novel lines as NovelId
    val all   = LogSynth.hdfsLike(spark, 4000).collect().sortBy(_.lineId)
    val cut   = 2400L * 64 // lineId = sessionId * 64 + index
    val drain = new Drain(4, 0.5)
    val train = all.filter(l => l.lineId < cut && l.sessionLabel == "normal")
      .map(l => (l, drain.parse(l.message)))
      .groupBy(_._1.sessionId).values.map(_.sortBy(_._1.lineId).map(_._2).toSeq).toSeq
    val test = all.filter(_.lineId >= cut).flatMap(Instability.injectLine(_, 0.2, 43L))
      .groupBy(_.sessionId).values
      .map(_.sortBy(l => (l.ts.getTime, l.lineId))
        .map(l => drain.matchTokens(Preprocess.tokenize(l.message)).getOrElse(NovelId)).toSeq)
      .toSeq
    assert(test.exists(_.contains(NovelId)))
    def dedup(s: Seq[Int]) = s.foldLeft(Vector.empty[Int])((acc, x) => if (acc.lastOption.contains(x)) acc else acc :+ x)
    assertSameAsReference(train, test)
    assertSameAsReference(train.map(dedup), test.map(dedup))
  }
}

/** The top-g rule as it was first written: sorts a context's counts on
  * every call. Reference for [[NGramModel]]'s frozen top-g sets.
  */
private class SortPerCall(h: Int, topG: Int, checkEnd: Boolean) {
  private val Start = -1
  private val End   = -2
  private val counts = mutable.Map.empty[List[Int], mutable.Map[Int, Long]]
  private val vocab  = mutable.Set.empty[Int]

  def fit(sequences: Seq[Seq[Int]]): this.type = {
    sequences.foreach { seq =>
      vocab ++= seq
      val padded = List.fill(h)(Start) ++ seq ++ (if (seq.nonEmpty) List(End) else Nil)
      padded.sliding(h + 1).foreach {
        case window if window.length == h + 1 =>
          for (order <- 1 to h)
            counts.getOrElseUpdate(window.slice(h - order, h), mutable.Map.empty)
              .updateWith(window.last) { c => Some(c.getOrElse(0L) + 1L) }
        case _ => ()
      }
    }
    this
  }

  def predict(history: Seq[Int]): Option[Set[Int]] = {
    val padded = (List.fill(h)(Start) ++ history).takeRight(h)
    var order  = h
    while (order >= 1) {
      counts.get(padded.takeRight(order)) match {
        case Some(m) => return Some(m.toSeq.sortBy { case (ev, c) => (-c, ev) }.take(topG).map(_._1).toSet)
        case None    => order -= 1
      }
    }
    None
  }

  def anomalousEvents(seq: Seq[Int]): Seq[Int] = {
    val events = seq.indices.filter { i =>
      !vocab.contains(seq(i)) || predict(seq.take(i)).forall(top => !top.contains(seq(i)))
    }
    val endBad = checkEnd && seq.nonEmpty && seq.forall(vocab.contains) &&
      predict(seq).forall(top => !top.contains(End))
    if (endBad) events :+ seq.length else events
  }
}
