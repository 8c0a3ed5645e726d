package repro.parse

import scala.collection.mutable

/** Drain — online log parsing with a fixed-depth parse tree (He et al.,
  * ICWS 2017), the parser the paper identifies as the most efficient
  * existing solution and the base of its planned distributed variant.
  *
  * Tree layout: root → token-count node → up to `depth - 2` leading-token
  * nodes (tokens containing digits descend through a `<*>` child, and a
  * node caps its children at `maxChildren`, overflow going to `<*>`) →
  * leaf holding a list of log groups. A new line joins the most similar
  * group if the similarity of static tokens ≥ `simThreshold`, updating
  * the group template token-wise (mismatching positions become `<*>`);
  * otherwise it starts a new group.
  *
  * The two hyper-parameters (`depth`, `simThreshold`) are exactly the
  * ones whose sensitivity the paper measures as an automation limit
  * (§IV); `T4ParserBench` sweeps them.
  *
  * Instances are serializable so a trained tree can be broadcast and
  * applied in executors via [[matchTokens]] (frozen, streaming mode).
  * Frozen matching takes no lock: it reads an immutable index of the tree,
  * built on first use after the last learning step.
  */
class Drain(
    val depth: Int = 4,
    val simThreshold: Double = 0.4,
    val maxChildren: Int = 100,
) extends Serializable {

  /** A leaf group: mined template plus its stable id. */
  final class Group(val id: Int, var template: Vector[String]) extends Serializable

  private final class Node extends Serializable {
    val children: mutable.Map[String, Node] = mutable.Map.empty
    val groups: mutable.ArrayBuffer[Group]  = mutable.ArrayBuffer.empty
  }

  private val root  = new Node
  private var nextId = 0
  private val byId  = mutable.Map.empty[Int, Group]

  /** All mined templates, id → token vector. */
  def templates: Map[Int, Vector[String]] = byId.view.mapValues(_.template).toMap

  /** Parse one message online: returns the group id, learning as needed. */
  def parse(message: String): Int = parseTokens(Preprocess.tokenize(message))

  /** Parse pre-tokenized input online. */
  def parseTokens(tokens: Vector[String]): Int = synchronized {
    index = null
    val leaf = descend(tokens)
    bestGroup(leaf.groups, tokens) match {
      case Some(g) =>
        g.template = merge(g.template, tokens)
        g.id
      case None =>
        val g = new Group(nextId, tokens)
        nextId += 1
        byId(g.id) = g
        leaf.groups += g
        g.id
    }
  }

  /** Frozen lookup: match without learning. None if no group is similar
    * enough (a novel template — MoniLog's streaming path hands these to
    * the semantic matcher).
    */
  def matchOnly(message: String): Option[Int] = matchTokens(Preprocess.tokenize(message))

  /** Lock-free: reads the frozen [[Index]], building it on the first call
    * after the last [[parseTokens]]. Safe to call from many threads.
    */
  def matchTokens(tokens: Vector[String]): Option[Int] = {
    val ix   = { val i = index; if (i ne null) i else freeze() }
    var node = ix.root(tokens.length)
    val n    = math.min(tokens.length, depth - 2)
    var i    = 0
    while (i < n && (node ne null)) {
      val t = tokens(i)
      node = node.child(if (Preprocess.looksVariable(t)) "<*>" else t)
      i += 1
    }
    if (node eq null) None else node.best(tokens)
  }

  // ----------------------------------------------------------------
  // frozen index
  // ----------------------------------------------------------------

  /** Read-only copy of the tree for [[matchTokens]]. Published through a
    * volatile field and never mutated afterwards, so readers need no lock.
    * Transient: a broadcast carries only the tree and each executor JVM
    * rebuilds its index on first use.
    */
  @volatile @transient private var index: Index = null

  private def freeze(): Index = synchronized {
    if (index eq null) index = new Index(root)
    index
  }

  private final class Index(tree: Node) {
    private val byLength = new Array[Frozen](
      tree.children.keysIterator.filter(_ != "<*>").map(_.toInt + 1).maxOption.getOrElse(0))
    tree.children.foreach { case (k, c) => if (k != "<*>") byLength(k.toInt) = new Frozen(c) }
    private val anyLength = tree.children.get("<*>").map(new Frozen(_)).orNull

    /** Token-count level; a count the tree never saw falls through `<*>`. */
    def root(length: Int): Frozen =
      if (length < byLength.length && (byLength(length) ne null)) byLength(length) else anyLength
  }

  /** A frozen node. Each group keeps only the positions where its template
    * is static, since only those count towards similarity.
    */
  private final class Frozen(node: Node) {
    private val children = new java.util.HashMap[String, Frozen]()
    node.children.foreach { case (k, c) => children.put(k, new Frozen(c)) }
    private val wildcard = children.get("<*>")
    private val found    = node.groups.map(g => Some(g.id)).toArray // a match allocates nothing
    private val lengths  = node.groups.map(_.template.length).toArray
    private val statics  = node.groups.map(g => g.template.indices.filter(g.template(_) != "<*>").toArray).toArray
    private val words    = node.groups.indices.map(j => statics(j).map(node.groups(j).template)).toArray

    /** Child for a token key; an unknown key falls through `<*>`. */
    def child(key: String): Frozen = {
      val c = children.get(key)
      if (c ne null) c else wildcard
    }

    /** [[bestGroup]] over the frozen groups: first maximum wins. */
    def best(tokens: Vector[String]): Option[Int] = {
      var top     = -1
      var bestSim = -1.0
      var j       = 0
      while (j < found.length) {
        val s =
          if (lengths(j) != tokens.length) 0.0
          else {
            val pos = statics(j); val w = words(j)
            var eq  = 0
            var k   = 0
            while (k < pos.length) { if (w(k) == tokens(pos(k))) eq += 1; k += 1 }
            eq.toDouble / lengths(j) // NaN for two empty lines, as in simSeq
          }
        if (s > bestSim) { bestSim = s; top = j }
        j += 1
      }
      if (top >= 0 && bestSim >= simThreshold) found(top) else None
    }
  }

  // ----------------------------------------------------------------
  // mining
  // ----------------------------------------------------------------

  /** Leaf for a line: token-count node, then up to `depth - 2` leading
    * tokens; a full node sends a new key to its `<*>` child.
    */
  private def descend(tokens: Vector[String]): Node = {
    var node = child(root, tokens.length.toString)
    tokens.iterator.take(depth - 2).foreach { t =>
      node = child(node, if (Preprocess.looksVariable(t)) "<*>" else t)
    }
    node
  }

  private def child(node: Node, want: String): Node = {
    val key =
      if (want == "<*>" || node.children.contains(want) || node.children.size < maxChildren) want
      else "<*>"
    node.children.getOrElseUpdate(key, new Node)
  }

  /** Similarity over positions where the template is static; wildcard
    * positions contribute 0, per the original algorithm.
    */
  private def simSeq(template: Vector[String], tokens: Vector[String]): Double = {
    if (template.length != tokens.length) return 0.0
    var eq = 0
    var i  = 0
    while (i < template.length) {
      if (template(i) == tokens(i) && template(i) != "<*>") eq += 1
      i += 1
    }
    eq.toDouble / template.length
  }

  private def bestGroup(groups: mutable.ArrayBuffer[Group], tokens: Vector[String]): Option[Group] = {
    var best: Group = null
    var bestSim     = -1.0
    groups.foreach { g =>
      val s = simSeq(g.template, tokens)
      if (s > bestSim) { bestSim = s; best = g }
    }
    if (best != null && bestSim >= simThreshold) Some(best) else None
  }

  private def merge(template: Vector[String], tokens: Vector[String]): Vector[String] =
    template.indices.map(i => if (template(i) == tokens(i)) template(i) else "<*>").toVector
}
