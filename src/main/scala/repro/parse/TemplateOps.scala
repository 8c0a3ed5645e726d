package repro.parse

/** Helpers over mined templates. */
object TemplateOps {

  /** Extract the variable values of a message against a template: the
    * message tokens standing at the template's `<*>` positions. Length
    * mismatches yield the positions that exist on both sides.
    */
  def extractVars(template: Seq[String], tokens: Seq[String]): Seq[String] = {
    val n    = math.min(template.length, tokens.length)
    val vars = Vector.newBuilder[String]
    var i    = 0
    while (i < n) {
      if (template(i) == "<*>") vars += tokens(i)
      i += 1
    }
    vars.result()
  }

  /** Render a template token vector as its canonical string. */
  def render(template: Seq[String]): String = template.mkString(" ")
}
