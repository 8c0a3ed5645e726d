package repro.detect

import scala.collection.mutable

/** LogClustering-based problem identification (Lin et al., ICSE'16 — the
  * paper's baseline [18]), reduced to its detection core.
  *
  * Normal sessions' count vectors (log-scaled) are clustered online by
  * cosine distance against cluster representatives; at detection time a
  * session is anomalous iff its distance to every representative exceeds
  * the threshold — i.e. it matches no known normal behaviour.
  */
class LogClusterDetector extends Serializable {

  /** Cosine distance within which a training vector joins a cluster. */
  private val ClusterThreshold = 0.10
  /** Cosine distance beyond every cluster that makes a session anomalous. */
  private val DetectThreshold = 0.15

  private final class Cluster(var centroid: Array[Double], var n: Long)

  private val clusters = mutable.ArrayBuffer.empty[Cluster]

  def numClusters: Int = clusters.size

  /** Log-scale the raw counts so bursts don't dominate the direction. */
  private def weight(x: Array[Double]): Array[Double] =
    x.map(v => math.log1p(v))

  def fit(train: Array[Array[Double]]): this.type = {
    train.foreach { raw =>
      val x = weight(raw)
      nearest(x) match {
        case Some((c, d)) if d <= ClusterThreshold =>
          // running mean keeps the representative central
          var i = 0
          while (i < x.length) {
            c.centroid(i) = (c.centroid(i) * c.n + x(i)) / (c.n + 1)
            i += 1
          }
          c.n += 1
        case _ =>
          clusters += new Cluster(x.clone(), 1L)
      }
    }
    this
  }

  private def nearest(x: Array[Double]): Option[(Cluster, Double)] = {
    var best: Cluster = null
    var bestD         = Double.MaxValue
    clusters.foreach { c =>
      val d = LogClusterDetector.cosineDistance(c.centroid, x)
      if (d < bestD) { bestD = d; best = c }
    }
    if (best == null) None else Some((best, bestD))
  }

  /** Distance to the closest known-normal representative. */
  def score(x: Array[Double]): Double =
    nearest(weight(x)).map(_._2).getOrElse(Double.MaxValue)

  def isAnomaly(x: Array[Double]): Boolean = score(x) > DetectThreshold
}

object LogClusterDetector {

  /** 1 − cos(a, b). A zero vector is at 0 from another zero vector and
    * at 1 from any other vector.
    */
  private[detect] def cosineDistance(a: Array[Double], b: Array[Double]): Double = {
    var ab = 0.0; var aa = 0.0; var bb = 0.0; var i = 0
    while (i < a.length) { ab += a(i) * b(i); aa += a(i) * a(i); bb += b(i) * b(i); i += 1 }
    if (aa == 0.0 || bb == 0.0) { if (aa == bb) 0.0 else 1.0 }
    else 1.0 - ab / (math.sqrt(aa) * math.sqrt(bb))
  }
}
