(* Flat CSR graph core over Bigarray-backed int arrays (DESIGN.md §12).

   Layout: edges are numbered 0..m-1 in first-occurrence insertion order
   and stored endpoint-wise in [esrc]/[edst].  Adjacency is one flat pair
   of arrays [dst]/[eid] of length 2m, segmented by [seg] (n+1 offsets):
   positions seg.(v) .. seg.(v+1)-1 hold v's incident (neighbor, edge id)
   pairs.  Segments are filled by a single ascending pass over the edge
   ids, appending to the source endpoint first, then the destination —
   which reproduces exactly the edge-insertion adjacency order of the
   historical boxed representation.  Every recorded experiment number
   (BFS tie-breaking, Voronoi growth, CONGEST delivery order) depends on
   that order; do not reorder segments.

   [srt] is a permutation of CSR positions, sorted per segment by
   neighbor id: the binary-search lookup index, and the CONGEST fabric's
   inbox order, without a second copy of the pairs.

   The payload lives outside the OCaml heap: the GC never scans or moves
   it, and [Exec.Pool] domains share it zero-copy. *)

module Ba = Bigarray.Array1

type int_bigarray = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t

let ints len : int_bigarray = Ba.create Bigarray.int Bigarray.c_layout len

type t = {
  n : int;
  m : int;
  esrc : int_bigarray; (* m: first endpoint of edge e, insertion order *)
  edst : int_bigarray; (* m: second endpoint of edge e *)
  seg : int_bigarray; (* n+1: CSR segment offsets into dst/eid/srt *)
  dst : int_bigarray; (* 2m: neighbor ids, edge-insertion order *)
  eid : int_bigarray; (* 2m: edge ids, parallel to dst *)
  srt : int_bigarray; (* 2m: positions permuted per segment by ascending dst *)
  (* lazily computed structural fingerprint; 0L = not yet computed.  The
     write is a benign race: every domain computes the same value. *)
  mutable fp : Memo.Fingerprint.t;
}

let n g = g.n
let m g = g.m

(* Invariants justifying every [unsafe_get] below (established by [seal],
   the only constructor of [t]):
   - [seg] has n+1 ascending entries with seg.(0) = 0 and seg.(n) = 2m, so
     for v in [0,n) both seg.(v) and seg.(v+1) are valid indices and every
     CSR position p with seg.(v) <= p < seg.(v+1) lies in [0, 2m).
   - [dst], [eid], [srt] have exactly 2m entries; [srt] is a permutation
     of [0, 2m) mapping each segment onto itself.
   - [esrc] and [edst] both have exactly m entries.
   Each accessor bounds-checks its *argument* (vertex or edge id) with one
   safe [Ba.get]; everything derived from a checked argument is accessed
   with [Ba.unsafe_get] under the invariants above. *)

let[@inline] edge_u g e = Ba.get g.esrc e
let[@inline] edge_v g e = Ba.get g.edst e

let[@inline] edge g e =
  (* the safe get checks e; edst has the same length as esrc *)
  (Ba.get g.esrc e, Ba.unsafe_get g.edst e)

let edges g =
  Array.init g.m (fun e -> (Ba.unsafe_get g.esrc e, Ba.unsafe_get g.edst e))

let[@inline] degree g v =
  (* the safe get on seg.(v) checks v; seg.(v+1) is then in range *)
  let lo = Ba.get g.seg v in
  Ba.unsafe_get g.seg (v + 1) - lo

let[@inline] adj_offset g v = Ba.get g.seg v
let[@inline] adj_dst g p = Ba.get g.dst p
let[@inline] adj_eid g p = Ba.get g.eid p
let[@inline] adj_sorted g i = Ba.get g.srt i

let iter_adj g v f =
  let lo = Ba.get g.seg v and hi = Ba.unsafe_get g.seg (v + 1) in
  for p = lo to hi - 1 do
    f (Ba.unsafe_get g.dst p) (Ba.unsafe_get g.eid p)
  done

let fold_adj g v ~init ~f =
  let lo = Ba.get g.seg v and hi = Ba.unsafe_get g.seg (v + 1) in
  let acc = ref init in
  for p = lo to hi - 1 do
    acc := f !acc (Ba.unsafe_get g.dst p) (Ba.unsafe_get g.eid p)
  done;
  !acc

let exists_adj g v pred =
  let lo = Ba.get g.seg v and hi = Ba.unsafe_get g.seg (v + 1) in
  let p = ref lo in
  let found = ref false in
  while (not !found) && !p < hi do
    found := pred (Ba.unsafe_get g.dst !p) (Ba.unsafe_get g.eid !p);
    incr p
  done;
  !found

let neighbors g v =
  let lo = Ba.get g.seg v in
  let d = Ba.unsafe_get g.seg (v + 1) - lo in
  Array.init d (fun i -> Ba.unsafe_get g.dst (lo + i))

let[@inline] other_endpoint g e v =
  let u = Ba.get g.esrc e in
  let w = Ba.unsafe_get g.edst e in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.other_endpoint: vertex not on edge"

(* binary search over the per-segment sorted permutation: srt positions
   seg.(u)..seg.(u+1)-1 list u's incident pairs by ascending neighbor id,
   and neighbor ids are unique within a segment (no parallel edges), so
   srt is unique and the result does not depend on how seal built it *)
let find_edge_id g u v =
  let lo = ref (Ba.get g.seg u) and hi = ref (Ba.unsafe_get g.seg (u + 1)) in
  let res = ref (-1) in
  while !res < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p = Ba.unsafe_get g.srt mid in
    let w = Ba.unsafe_get g.dst p in
    if w = v then res := Ba.unsafe_get g.eid p
    else if w < v then lo := mid + 1
    else hi := mid
  done;
  !res

let find_edge g u v = match find_edge_id g u v with -1 -> None | e -> Some e
let[@inline] mem_edge g u v = find_edge_id g u v >= 0

let iter_edges g f =
  for e = 0 to g.m - 1 do
    f e (Ba.unsafe_get g.esrc e) (Ba.unsafe_get g.edst e)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun e u v -> acc := f !acc e u v);
  !acc

let fingerprint g =
  if g.fp <> 0L then g.fp
  else begin
    let h = ref Memo.Fingerprint.(empty |> string "graph" |> int g.n) in
    iter_edges g (fun _ u v -> h := Memo.Fingerprint.(!h |> int u |> int v));
    let h = if !h = 0L then 1L else !h in
    g.fp <- h;
    h
  end

(* -- construction -- *)

let seal n m esrc edst =
  (* counting pass: degrees accumulated into seg, then prefix-summed *)
  let seg = ints (n + 1) in
  Ba.fill seg 0;
  for e = 0 to m - 1 do
    let u = Ba.unsafe_get esrc e and v = Ba.unsafe_get edst e in
    Ba.unsafe_set seg (u + 1) (Ba.unsafe_get seg (u + 1) + 1);
    Ba.unsafe_set seg (v + 1) (Ba.unsafe_get seg (v + 1) + 1)
  done;
  for v = 1 to n do
    Ba.unsafe_set seg v (Ba.unsafe_get seg v + Ba.unsafe_get seg (v - 1))
  done;
  (* fill pass in ascending edge id, source endpoint first: reproduces the
     historical edge-insertion adjacency order exactly.  twin.(p) is the
     position of p's edge in the other endpoint's segment. *)
  let dst = ints (2 * m) and eid = ints (2 * m) and twin = ints (2 * m) in
  let cursor = ints (max 1 n) in
  let reset_cursor () =
    for v = 0 to n - 1 do
      Ba.unsafe_set cursor v (Ba.unsafe_get seg v)
    done
  in
  reset_cursor ();
  for e = 0 to m - 1 do
    let u = Ba.unsafe_get esrc e and v = Ba.unsafe_get edst e in
    let pu = Ba.unsafe_get cursor u in
    Ba.unsafe_set dst pu v;
    Ba.unsafe_set eid pu e;
    Ba.unsafe_set cursor u (pu + 1);
    let pv = Ba.unsafe_get cursor v in
    Ba.unsafe_set dst pv u;
    Ba.unsafe_set eid pv e;
    Ba.unsafe_set cursor v (pv + 1);
    Ba.unsafe_set twin pu pv;
    Ba.unsafe_set twin pv pu
  done;
  (* srt by transposition: walking owners v ascending, each position p of
     v hands its twin to segment dst.(p).  Segment w thus receives the
     positions whose neighbor is v in ascending v, and neighbor ids are
     unique per segment (the builder dedups), so every segment comes out
     as the unique sorted permutation — in O(n + m), at every size *)
  let srt = ints (2 * m) in
  reset_cursor ();
  for v = 0 to n - 1 do
    for p = Ba.unsafe_get seg v to Ba.unsafe_get seg (v + 1) - 1 do
      let w = Ba.unsafe_get dst p in
      let c = Ba.unsafe_get cursor w in
      Ba.unsafe_set srt c (Ba.unsafe_get twin p);
      Ba.unsafe_set cursor w (c + 1)
    done
  done;
  { n; m; esrc; edst; seg; dst; eid; srt; fp = 0L }

module Builder = struct
  type graph = t

  type t = {
    bn : int;
    mutable us : int_bigarray;
    mutable vs : int_bigarray;
    mutable len : int;
  }

  let create ?(edges_hint = 64) bn =
    if bn < 0 then invalid_arg "Graph.Builder.create: negative n";
    let cap = max 1 edges_hint in
    { bn; us = ints cap; vs = ints cap; len = 0 }

  let grow b =
    let cap = 2 * Ba.dim b.us in
    let us = ints cap and vs = ints cap in
    Ba.blit (Ba.sub b.us 0 b.len) (Ba.sub us 0 b.len);
    Ba.blit (Ba.sub b.vs 0 b.len) (Ba.sub vs 0 b.len);
    b.us <- us;
    b.vs <- vs

  let add_edge b u v =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg "Graph.Builder.add_edge: vertex out of range";
    if u <> v then begin
      if b.len = Ba.dim b.us then grow b;
      Ba.unsafe_set b.us b.len u;
      Ba.unsafe_set b.vs b.len v;
      b.len <- b.len + 1
    end

  (* Dedup without hash tables: group raw pairs by their min endpoint with
     a counting scatter, then detect repeats inside each group with a
     per-vertex stamp array.  Duplicates of an edge (in either
     orientation) always share the min endpoint, hence the group; the
     scatter visits raw indices in ascending order, so within a group the
     first entry seen is the globally first occurrence — reproducing the
     historical Hashtbl first-occurrence semantics — and the final
     numbering pass walks raw indices ascending, so surviving edges keep
     their global insertion order. *)
  let build b =
    let n = b.bn and raw = b.len in
    let start = ints (n + 1) in
    Ba.fill start 0;
    for i = 0 to raw - 1 do
      let u = Ba.unsafe_get b.us i and v = Ba.unsafe_get b.vs i in
      let lo = if u < v then u else v in
      Ba.unsafe_set start (lo + 1) (Ba.unsafe_get start (lo + 1) + 1)
    done;
    for v = 1 to n do
      Ba.unsafe_set start v (Ba.unsafe_get start v + Ba.unsafe_get start (v - 1))
    done;
    let bucket = ints (max 1 raw) in
    let cursor = ints (max 1 n) in
    for v = 0 to n - 1 do
      Ba.unsafe_set cursor v (Ba.unsafe_get start v)
    done;
    for i = 0 to raw - 1 do
      let u = Ba.unsafe_get b.us i and v = Ba.unsafe_get b.vs i in
      let lo = if u < v then u else v in
      let p = Ba.unsafe_get cursor lo in
      Ba.unsafe_set bucket p i;
      Ba.unsafe_set cursor lo (p + 1)
    done;
    (* seen.(w) = u marks "edge {u,w} already kept" while scanning u's
       group; groups are scanned in ascending u and w > u always, so a
       stale stamp from an earlier group can never equal the current u *)
    let seen = ints (max 1 n) in
    Ba.fill seen (-1);
    let keep = Bytes.make (max 1 raw) '\000' in
    let m = ref 0 in
    for u = 0 to n - 1 do
      for p = Ba.unsafe_get start u to Ba.unsafe_get start (u + 1) - 1 do
        let i = Ba.unsafe_get bucket p in
        let a = Ba.unsafe_get b.us i and c = Ba.unsafe_get b.vs i in
        let w = if a = u then c else a in
        if Ba.unsafe_get seen w <> u then begin
          Ba.unsafe_set seen w u;
          Bytes.unsafe_set keep i '\001';
          incr m
        end
      done
    done;
    let m = !m in
    let esrc = ints (max 1 m) and edst = ints (max 1 m) in
    let e = ref 0 in
    for i = 0 to raw - 1 do
      if Bytes.unsafe_get keep i = '\001' then begin
        Ba.unsafe_set esrc !e (Ba.unsafe_get b.us i);
        Ba.unsafe_set edst !e (Ba.unsafe_get b.vs i);
        incr e
      end
    done;
    seal n m esrc edst
end

let of_edges n raw =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let b = Builder.create ~edges_hint:(List.length raw) n in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: vertex out of range";
      Builder.add_edge b u v)
    raw;
  Builder.build b

let complete n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v) :: !acc
    done
  done;
  of_edges n !acc

type weights = float array

let unit_weights g = Array.make (m g) 1.0

let random_weights ?state g =
  let st = match state with Some s -> s | None -> Random.State.make [| 42 |] in
  let m = m g in
  if Fastrand.active () then begin
    (* same stream, same values: [Random.State.float st 1.0] is
       rawfloat *. 1.0, and [draw53] is that rawfloat's mantissa — but
       the draw stays unboxed, which matters at m ~ 10^7 *)
    let w = Array.make m 0.0 in
    for e = 0 to m - 1 do
      w.(e) <- (float_of_int (Fastrand.draw53 st) *. 0x1.p-53) +. 1e-9
    done;
    w
  end
  else Array.init m (fun _ -> Random.State.float st 1.0 +. 1e-9)

let pp ppf g = Fmt.pf ppf "graph(n=%d, m=%d)" g.n (m g)
