(** Plain-text graph interchange: the CLI and external tools read and write
    edge lists.

    Format: first line [n m], then [m] lines [u v] (0-based vertex ids),
    optionally followed by a weight per edge ([u v w]). Lines starting with
    ['#'] are comments. *)

val to_string : ?weights:Graph.weights -> Graph.t -> string

val of_string : string -> Graph.t * Graph.weights option
(** @raise Invalid_argument on malformed input, as
    ["Io.of_string: line N: ..."] with the 1-based line (comments and
    blank lines counted): a bad header or count, a bad or out-of-range
    vertex, a bad weight, a weight that is not finite ([nan], [inf], or
    one that overflows like [1e400]), mixed weighted and unweighted lines,
    an edge count that disagrees with the header, or a self-loop or
    duplicate edge in weighted input. *)

val write_file : string -> ?weights:Graph.weights -> Graph.t -> unit
val read_file : string -> Graph.t * Graph.weights option

(** {1 Raw edge lists}

    Headerless whitespace-separated edge lists, the format SNAP-style
    dataset downloads use once gunzipped: one [u v] pair per line (tabs or
    spaces), ['#'] or ['%'] comment lines, blank lines, and an optional
    ignored third column.  No decompression here — pipe through [zcat]
    first. *)

val of_edge_list : ?n:int -> string -> Graph.t
(** Parse a raw edge list.  The vertex count is inferred as the maximum
    mentioned id plus one unless [n] supplies a larger count; self-loops
    are dropped and duplicate pairs merged as in {!Graph.of_edges}.
    @raise Invalid_argument on malformed input, naming the 1-based line
    number. *)

val read_edge_list : ?n:int -> string -> Graph.t
(** {!of_edge_list} over a file's contents. *)
