(* Binary min-heap over parallel arrays: priorities in a float array
   (unboxed) and payloads in a plain array, instead of one array of boxed
   (float * 'a) tuples — a push costs zero allocations once the backing
   stores have grown, where the tuple layout boxed both the pair and the
   float on every push. *)
type 'a t = {
  mutable prio : float array;
  mutable data : 'a array;
  mutable len : int;
}

let create () = { prio = [||]; data = [||]; len = 0 }
let is_empty q = q.len = 0
let size q = q.len

let grow q item =
  let cap = Array.length q.data in
  if q.len = cap then begin
    let ncap = max 8 (2 * cap) in
    let np = Array.make ncap 0.0 in
    let nd = Array.make ncap item in
    Array.blit q.prio 0 np 0 q.len;
    Array.blit q.data 0 nd 0 q.len;
    q.prio <- np;
    q.data <- nd
  end

let swap q i j =
  let tp = q.prio.(i) and td = q.data.(i) in
  q.prio.(i) <- q.prio.(j);
  q.data.(i) <- q.data.(j);
  q.prio.(j) <- tp;
  q.data.(j) <- td

let push q prio x =
  grow q x;
  q.prio.(q.len) <- prio;
  q.data.(q.len) <- x;
  q.len <- q.len + 1;
  (* sift up *)
  let i = ref (q.len - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if q.prio.(p) > q.prio.(!i) then begin
      swap q p !i;
      i := p
    end
    else continue := false
  done

let peek q = if q.len = 0 then None else Some (q.prio.(0), q.data.(0))

(* Event-queue variant: a min-heap keyed by the composite (time, a, b)
   compared lexicographically, carrying an immediate int payload.  A
   discrete-event scheduler keys on (delivery_time, edge_dir, seq): float
   time alone cannot break ties deterministically (two messages can
   arrive at the same instant), and boxing the key as a tuple would
   allocate on every push.

   Layout: the times live in one unboxed float array, and entry i's ints
   are interleaved in one int array with stride 3 — a at 3i, b at 3i + 1,
   the payload at 3i + 2 — so moving an entry touches two arrays, not
   four.

   One predicate orders the heap.  [lt] is the strict lexicographic
   less-than, built from [Bool.to_int] of [<] and [=] tests combined with
   [land]/[lor]: a bool is the int 0 or 1 and [Bool.to_int] is the
   identity, so ocamlopt compiles it to setcc / cmpsd code with no jump.
   Times are never NaN (the asynch executors only add non-negative
   latencies to a clock that starts at zero), so [<] and [=] on them
   order exactly as [Float.compare] would.

   [pop] is Floyd's bottom-up deletion.  The hole left at the root first
   walks down to a leaf, moving the smaller child up at each level; that
   child's index is the left index plus [lt right left], so choosing it
   costs one predicate and no branch, where a branch on the choice is
   mispredicted about half the time.  The last entry, carried out of
   its slot, is then sifted up from that leaf; it came from the bottom
   level, so it rarely climbs far.  [push] sifts up into a hole on the
   same predicate.  Every sift writes the carried entry once, and the
   minimum is read field by field ([min_time], [min_a]) while [pop]
   returns only its payload, so neither side allocates once the backing
   stores have grown.  decrease_key is deliberately absent: an event,
   once scheduled, never reschedules.

   Unsafe indexing: every slot a call touches holds an entry before or
   after the call, and the entry count never exceeds the capacity
   ([Array.length time], with [keys] exactly three times as long):
   [push] grows the stores before it takes its slot, and [pop] and the
   minimum readers check for an empty queue first.  So the
   [unsafe_get]/[unsafe_set] calls below are in bounds. *)
module Event = struct
  type t = {
    mutable time : float array;
    mutable keys : int array;  (* a, b, payload of entry i at 3i .. 3i + 2 *)
    mutable len : int;
    mutable hwm : int;
  }

  let create () = { time = [||]; keys = [||]; len = 0; hwm = 0 }
  let is_empty q = q.len = 0
  let size q = q.len
  let high_water q = q.hwm

  let grow q =
    let ncap = max 8 (2 * q.len) in
    let nt = Array.make ncap 0.0 and nk = Array.make (3 * ncap) 0 in
    Array.blit q.time 0 nt 0 q.len;
    Array.blit q.keys 0 nk 0 (3 * q.len);
    q.time <- nt;
    q.keys <- nk

  (* the strict (time, a, b) order as 0 or 1, with no branch *)
  let[@inline] lt (t1 : float) (a1 : int) (b1 : int) (t2 : float) (a2 : int)
      (b2 : int) =
    Bool.to_int (t1 < t2)
    lor (Bool.to_int (t1 = t2)
        land (Bool.to_int (a1 < a2)
             lor (Bool.to_int (a1 = a2) land Bool.to_int (b1 < b2))))

  (* [lt] of entry i against entry j *)
  let[@inline] lt_at (tm : float array) (ks : int array) i j =
    lt (Array.unsafe_get tm i)
      (Array.unsafe_get ks (3 * i))
      (Array.unsafe_get ks ((3 * i) + 1))
      (Array.unsafe_get tm j)
      (Array.unsafe_get ks (3 * j))
      (Array.unsafe_get ks ((3 * j) + 1))

  (* entry [src] moves into slot [dst] *)
  let[@inline] move (tm : float array) (ks : int array) ~dst src =
    Array.unsafe_set tm dst (Array.unsafe_get tm src);
    let d = 3 * dst and s = 3 * src in
    Array.unsafe_set ks d (Array.unsafe_get ks s);
    Array.unsafe_set ks (d + 1) (Array.unsafe_get ks (s + 1));
    Array.unsafe_set ks (d + 2) (Array.unsafe_get ks (s + 2))

  (* sift the entry (time, a, b, payload) up from hole [i]: parents that
     order after it move down into the hole, then it is written once *)
  let[@inline] sift_up (tm : float array) (ks : int array) i (time : float) a
      b payload =
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) lsr 1 in
      if
        lt time a b (Array.unsafe_get tm p)
          (Array.unsafe_get ks (3 * p))
          (Array.unsafe_get ks ((3 * p) + 1))
        = 1
      then begin
        move tm ks ~dst:!i p;
        i := p
      end
      else continue := false
    done;
    let d = 3 * !i in
    Array.unsafe_set tm !i time;
    Array.unsafe_set ks d a;
    Array.unsafe_set ks (d + 1) b;
    Array.unsafe_set ks (d + 2) payload

  let[@inline] push q ~time ~a ~b payload =
    if q.len = Array.length q.time then grow q;
    let i = q.len in
    q.len <- i + 1;
    if q.len > q.hwm then q.hwm <- q.len;
    sift_up q.time q.keys i time a b payload

  let empty () = invalid_arg "Pqueue.Event: empty queue"

  let[@inline] min_time q =
    if q.len = 0 then empty () else Array.unsafe_get q.time 0

  let min_a q = if q.len = 0 then empty () else Array.unsafe_get q.keys 0

  let pop q =
    if q.len = 0 then empty ();
    let tm = q.time and ks = q.keys in
    let top = Array.unsafe_get ks 2 in
    let n = q.len - 1 in
    q.len <- n;
    if n > 0 then begin
      (* the last entry is carried out of slot n; the heap is slots
         0 .. n - 1 with a hole at the root.  While both children are in
         the heap, the smaller one moves up into the hole. *)
      let h = ref 0 and l = ref 1 in
      while !l + 1 < n do
        let c = !l + lt_at tm ks (!l + 1) !l in
        move tm ks ~dst:!h c;
        h := c;
        l := (2 * c) + 1
      done;
      (* a last internal node with only a left child *)
      if !l < n then begin
        move tm ks ~dst:!h !l;
        h := !l
      end;
      let k = 3 * n in
      sift_up tm ks !h (Array.unsafe_get tm n) (Array.unsafe_get ks k)
        (Array.unsafe_get ks (k + 1))
        (Array.unsafe_get ks (k + 2))
    end;
    top
end

let pop q =
  if q.len = 0 then None
  else begin
    let top = (q.prio.(0), q.data.(0)) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.prio.(0) <- q.prio.(q.len);
      q.data.(0) <- q.data.(q.len);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && q.prio.(l) < q.prio.(!smallest) then smallest := l;
        if r < q.len && q.prio.(r) < q.prio.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap q !smallest !i;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some top
  end
