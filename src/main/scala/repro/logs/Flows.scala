package repro.logs

import repro.logs.LogModel._

/** Template catalogs and session flows for each synthetic log source.
  *
  * Four "cloud platform" sources (network, storage, compute, auth) model
  * the paper's multi-source environment (§II: one system ↔ 24 sources);
  * a fifth, `hdfs`, models the single-source HDFS benchmark shape used by
  * the detector-comparison literature the paper builds on (§III).
  *
  * Template ids are globally unique so a mixed multi-source stream has a
  * single event vocabulary, as MoniLog's structured stream would.
  */
object Flows {

  private val ips: IndexedSeq[String] =
    for (a <- 1 to 6; b <- 1 to 4) yield s"10.250.$a.$b"
  private val hosts: IndexedSeq[String] = (1 to 12).map(i => f"node-$i%02d")
  private val users: IndexedSeq[String] = (1 to 40).map(i => s"u$i")
  private val images: IndexedSeq[String] = IndexedSeq("ubuntu22", "debian12", "centos9", "win2019")
  private val flavors: IndexedSeq[String] = IndexedSeq("tiny", "small", "medium", "large")
  private val apis: IndexedSeq[String] = IndexedSeq("ListVms", "CreateVolume", "ReadImage", "DescribeNets")
  private val blockIds: IndexedSeq[String] = (1 to 400).map(i => s"blk_$i")
  private val volIds: IndexedSeq[String] = (1 to 200).map(i => s"vol-$i")
  private val instIds: IndexedSeq[String] = (1 to 200).map(i => s"i-$i")
  private val paths: IndexedSeq[String] = (1 to 60).map(i => s"/user/job$i/part-$i")

  private def t(id: Int, source: String, toks: Tok*): TemplateDef =
    TemplateDef(id, source, toks)

  // ------------------------------------------------------------------
  // network — connection lifecycle (ids 10..15)
  // ------------------------------------------------------------------
  val networkTemplates: Seq[TemplateDef] = Seq(
    t(10, "network", Static("Connection"), Static("opened"), Static("src:"),
      CatVar(ips), Static("port:"), NumVar(32000, 8000)),
    TemplateDef(11, "network", Seq(Static("Sending"), NumVar(520, 120), Static("bytes"),
      Static("src:"), CatVar(ips), Static("dest:"), CatVar(ips)),
      payloadKeys = Seq("user_id", "service_name", "request_id")),
    t(12, "network", Static("Received"), Static("ack"), Static("for"),
      NumVar(24, 6), Static("packets"), Static("from"), CatVar(ips)),
    t(13, "network", Static("Connection"), Static("closed"), Static("src:"),
      CatVar(ips), Static("duration:"), NumVar(1800, 400), Static("ms")),
    t(14, "network", Static("Error"), Static("while"), Static("receiving"),
      Static("data"), Static("src:"), CatVar(ips), Static("dest:"), CatVar(ips)),
    t(15, "network", Static("Failed"), Static("to"), Static("verify"),
      Static("data"), Static("integrity"), Static("src:"), CatVar(ips),
      Static("dest:"), CatVar(ips)),
  )
  val networkFlow: SourceFlow = SourceFlow(
    "network",
    Seq(Fixed(10), Repeat(11, 1, 4), Fixed(12), Fixed(13)),
    errorTemplateIds = Seq(14, 15),
  )

  // ------------------------------------------------------------------
  // storage — volume attach lifecycle (ids 20..25)
  // ------------------------------------------------------------------
  val storageTemplates: Seq[TemplateDef] = Seq(
    TemplateDef(20, "storage", Seq(Static("Volume"), CatVar(volIds), Static("attach"),
      Static("requested"), Static("by"), Static("user"), CatVar(users)),
      payloadKeys = Seq("tenant", "az", "request_id", "api_version")),
    t(21, "storage", Static("Allocating"), NumVar(64, 16), Static("blocks"),
      Static("for"), Static("volume"), CatVar(volIds)),
    t(22, "storage", Static("Replicating"), Static("block"), CatVar(blockIds),
      Static("to"), Static("node"), CatVar(hosts)),
    t(23, "storage", Static("Volume"), CatVar(volIds), Static("attached"),
      Static("successfully"), Static("in"), NumVar(950, 220), Static("ms")),
    t(24, "storage", Static("Checksum"), Static("mismatch"), Static("on"),
      Static("block"), CatVar(blockIds), Static("node"), CatVar(hosts)),
    t(25, "storage", Static("Volume"), CatVar(volIds), Static("attach"),
      Static("failed:"), Static("insufficient"), Static("capacity")),
  )
  val storageFlow: SourceFlow = SourceFlow(
    "storage",
    Seq(Fixed(20), Fixed(21), Repeat(22, 2, 5), Fixed(23)),
    errorTemplateIds = Seq(24, 25),
  )

  // ------------------------------------------------------------------
  // compute — instance launch lifecycle (ids 30..35)
  // ------------------------------------------------------------------
  val computeTemplates: Seq[TemplateDef] = Seq(
    t(30, "compute", Static("Instance"), CatVar(instIds), Static("launch"),
      Static("requested"), Static("image"), CatVar(images), Static("flavor"), CatVar(flavors)),
    t(31, "compute", Static("Scheduling"), Static("instance"), CatVar(instIds),
      Static("on"), Static("host"), CatVar(hosts)),
    t(32, "compute", Static("Spawning"), Static("instance"), CatVar(instIds),
      Static("on"), Static("host"), CatVar(hosts)),
    t(33, "compute", Static("Instance"), CatVar(instIds), Static("became"),
      Static("active"), Static("in"), NumVar(42, 9, integer = false), Static("seconds")),
    t(34, "compute", Static("Instance"), CatVar(instIds), Static("failed"),
      Static("to"), Static("spawn"), Static("on"), Static("host"), CatVar(hosts)),
    t(35, "compute", Static("Instance"), CatVar(instIds), Static("heartbeat"),
      Static("lost"), Static("on"), Static("host"), CatVar(hosts)),
  )
  val computeFlow: SourceFlow = SourceFlow(
    "compute",
    Seq(Fixed(30), Fixed(31), Fixed(32), Fixed(33)),
    errorTemplateIds = Seq(34, 35),
  )

  // ------------------------------------------------------------------
  // auth — token/session lifecycle (ids 40..45)
  // ------------------------------------------------------------------
  val authTemplates: Seq[TemplateDef] = Seq(
    t(40, "auth", Static("User"), CatVar(users), Static("login"),
      Static("attempt"), Static("from"), CatVar(ips)),
    t(41, "auth", Static("Token"), Static("issued"), Static("for"),
      Static("user"), CatVar(users), Static("ttl"), NumVar(3600, 600), Static("seconds")),
    TemplateDef(42, "auth", Seq(Static("User"), CatVar(users), Static("request"),
      CatVar(apis), Static("authorized")),
      payloadKeys = Seq("role", "mfa", "client")),
    t(43, "auth", Static("Session"), Static("expired"), Static("for"),
      Static("user"), CatVar(users)),
    t(44, "auth", Static("Authentication"), Static("failure"), Static("for"),
      Static("user"), CatVar(users), Static("from"), CatVar(ips)),
    t(45, "auth", Static("Too"), Static("many"), Static("failed"),
      Static("attempts"), Static("from"), CatVar(ips), Static("blocking")),
  )
  val authFlow: SourceFlow = SourceFlow(
    "auth",
    Seq(Fixed(40), Fixed(41), Repeat(42, 1, 5), Fixed(43)),
    errorTemplateIds = Seq(44, 45),
  )

  // ------------------------------------------------------------------
  // hdfs — single-source block lifecycle for the detector comparison
  // (ids 50..56), shaped after the classic HDFS benchmark sessions.
  // ------------------------------------------------------------------
  val hdfsTemplates: Seq[TemplateDef] = Seq(
    t(50, "hdfs", Static("Receiving"), Static("block"), CatVar(blockIds),
      Static("src:"), CatVar(ips), Static("dest:"), CatVar(ips)),
    t(51, "hdfs", Static("BLOCK"), Static("NameSystem.allocateBlock:"), CatVar(paths)),
    t(52, "hdfs", Static("Received"), Static("block"), CatVar(blockIds),
      Static("of"), Static("size"), NumVar(67000000, 9000000), Static("from"), CatVar(ips)),
    t(53, "hdfs", Static("PacketResponder"), NumVar(1.5, 0.8), Static("for"),
      Static("block"), CatVar(blockIds), Static("terminating")),
    t(54, "hdfs", Static("BLOCK"), Static("ask"), CatVar(ips), Static("to"),
      Static("replicate"), CatVar(blockIds), Static("to"), Static("datanode"), CatVar(ips)),
    t(55, "hdfs", Static("Exception"), Static("in"), Static("receiveBlock"),
      Static("for"), Static("block"), CatVar(blockIds), Static("java.io.IOException")),
    t(56, "hdfs", Static("PendingReplicationMonitor"), Static("timed"),
      Static("out"), Static("block"), CatVar(blockIds)),
  )
  val hdfsFlow: SourceFlow = SourceFlow(
    "hdfs",
    Seq(Fixed(51), Fixed(50), Repeat(52, 2, 3), Fixed(53), Fixed(54)),
    errorTemplateIds = Seq(55, 56),
  )

  /** The four cloud sources (the multi-source environment). */
  val cloudFlows: Seq[SourceFlow] = Seq(networkFlow, storageFlow, computeFlow, authFlow)
  val cloudTemplates: Seq[TemplateDef] =
    networkTemplates ++ storageTemplates ++ computeTemplates ++ authTemplates

  /** Every template, all sources, keyed by id. */
  val allTemplates: Map[Int, TemplateDef] =
    (cloudTemplates ++ hdfsTemplates).map(td => td.id -> td).toMap

  /** Could this template sequence have been produced by the source's
    * normal flow? Used by the generator to guarantee that an injected
    * sequential anomaly actually deviates (a swap of two identical
    * repeat events, say, would be indistinguishable from normal).
    */
  def isValidFlow(source: String, seq: Seq[Int]): Boolean = {
    var i = 0
    flowFor(source).steps.foreach {
      case Fixed(t) =>
        if (i < seq.length && seq(i) == t) i += 1 else return false
      case Repeat(t, min, max) =>
        var c = 0
        while (i < seq.length && seq(i) == t && c < max) { i += 1; c += 1 }
        if (c < min) return false
    }
    i == seq.length
  }

  private val flowsBySource: Map[String, SourceFlow] =
    (cloudFlows :+ hdfsFlow).map(f => f.source -> f).toMap

  def flowFor(source: String): SourceFlow =
    flowsBySource.getOrElse(source, throw new IllegalArgumentException(s"unknown source: $source"))
}
