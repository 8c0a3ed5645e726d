package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import java.util.concurrent.{CountDownLatch, TimeUnit}

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Order statistics over timing samples. */
object Stats {

  /** Linear-interpolation percentile (`p` in [0, 100]) of a non-empty sample. */
  def percentile(xs: Iterable[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 100, s"percentile $p outside [0, 100]")
    val s   = xs.toArray.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Iterable[Double]): Double = percentile(xs, 50)

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e6)
  }
}

/** One timed call into a layer. `parent` is -1 for a root span; spans of
  * one timed operation share `run`.
  */
final case class Span(id: Int, parent: Int, run: Int, name: String, startNs: Long, endNs: Long)

/** In-memory span recorder. Spans are kept only while `on`; they are
  * written out once, at the end of a traced run.
  */
final class Tracer {
  var on = false
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]
  private var run   = 0
  private var next  = 0

  /** Start a new timed operation: later root spans carry a fresh run id. */
  def newRun(): Unit = run += 1

  def span[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val id     = next
      val parent = open.headOption.getOrElse(-1)
      next += 1
      open = id :: open
      val t0 = System.nanoTime()
      try f
      finally {
        spans += Span(id, parent, run, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  def writeJsonl(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    Files.write(path, spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"run":${s.run},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.asJava, UTF_8)
  }
}

/** Task-level counters summed from Spark's public listener bus. */
final class TaskCounters extends SparkListener {
  var shuffleWriteBytes = 0L

  private val MarkerKey = "perfbench.marker"
  private var markerJob    = -1
  private var markerStages = Set.empty[Int]
  private var markerDone: CountDownLatch = null

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (e.properties != null && e.properties.getProperty(MarkerKey) != null) {
      markerJob = e.jobId
      markerStages = e.stageIds.toSet
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob && markerDone != null) markerDone.countDown()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages(e.stageId))
      Option(e.taskMetrics).foreach(m => shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten)
  }

  def reset(): Unit = synchronized { shuffleWriteBytes = 0 }

  /** Block until every event posted before this call has been delivered: the
    * bus is FIFO, so once a marker job's end arrives the earlier tasks have.
    */
  def sync(sc: SparkContext): Unit = {
    val done = new CountDownLatch(1)
    synchronized { markerDone = done }
    sc.setLocalProperty(MarkerKey, "1")
    try sc.parallelize(Seq(1), 1).foreach(_ => ())
    finally sc.setLocalProperty(MarkerKey, null)
    done.await(30, TimeUnit.SECONDS)
  }
}

/** JVM-wide readings. */
object Jvm {


  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap in use after a full collection, in MB. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
