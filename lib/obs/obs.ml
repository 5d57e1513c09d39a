(* Pipeline-wide observability: a monotonic wall clock, the counter taxonomy
   shared by the BDD manager and the engines above it, named phase timers,
   a snapshot/diff model, and a hand-rolled JSON emitter/parser (no external
   dependencies).

   Everything here is plain data: the producing layers (Man, Trans, Reach,
   Hsis) fill the records in, and the consumers (CLI, bench harness, tests)
   render them with {!pp} or {!to_json}. *)

(* ------------------------------------------------------------------ *)
(* Clock *)

module Clock = struct
  (* [Unix.gettimeofday] is wall-clock but can step backwards under NTP
     adjustment; clamping against the last reading makes every difference
     of two [now] values non-negative, which is all the timers need. *)
  let last = ref neg_infinity

  let now () =
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

  let wall f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
end

(* ------------------------------------------------------------------ *)
(* JSON *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Shortest representation that still round-trips; non-finite floats have
     no JSON spelling and become null. *)
  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_nan f || f = infinity || f = neg_infinity then
          Buffer.add_string b "null"
        else Buffer.add_string b (float_repr f)
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit b x)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            emit b v)
          kvs;
        Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 256 in
    emit b j;
    Buffer.contents b

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let k = String.length word in
      if !pos + k <= n && String.sub s !pos k = word then begin
        pos := !pos + k;
        v
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let utf8_of_code b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'; incr pos
            | '\\' -> Buffer.add_char b '\\'; incr pos
            | '/' -> Buffer.add_char b '/'; incr pos
            | 'b' -> Buffer.add_char b '\b'; incr pos
            | 'f' -> Buffer.add_char b '\012'; incr pos
            | 'n' -> Buffer.add_char b '\n'; incr pos
            | 'r' -> Buffer.add_char b '\r'; incr pos
            | 't' -> Buffer.add_char b '\t'; incr pos
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let cp =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                utf8_of_code b cp;
                pos := !pos + 5
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | _ -> fail "expected a JSON value"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input after JSON value";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let to_int = function
    | Some (Int i) -> i
    | Some (Float f) -> int_of_float f
    | _ -> 0

  let to_float = function
    | Some (Float f) -> f
    | Some (Int i) -> float_of_int i
    | _ -> 0.0

  let to_str = function Some (Str s) -> s | _ -> ""
  let to_list = function Some (List l) -> l | _ -> []
end

(* ------------------------------------------------------------------ *)
(* Counter taxonomy *)

module Cache = struct
  type op = { name : string; hits : int; misses : int }
  type t = { entries : int; slots : int; evictions : int; ops : op list }

  let lookups (o : op) = o.hits + o.misses

  let occupancy t =
    if t.slots = 0 then 0.0
    else float_of_int t.entries /. float_of_int t.slots

  let op_hit_rate (o : op) =
    let l = lookups o in
    if l = 0 then 0.0 else float_of_int o.hits /. float_of_int l

  let hits t = List.fold_left (fun acc o -> acc + o.hits) 0 t.ops
  let misses t = List.fold_left (fun acc o -> acc + o.misses) 0 t.ops

  let hit_rate t =
    let h = hits t and m = misses t in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
end

module Gc = struct
  type t = { runs : int; freed : int; time : float }
end

module Reorder = struct
  type t = { runs : int; time : float }
end

module Arena = struct
  type t = {
    live : int;
    dead : int;
    vars : int;
    peak_live : int;
    capacity : int;
  }
end

module Limit = struct
  (* Resource-governor activity: how many times the manager polled its
     budget, and how many interrupts fired per reason label ("deadline",
     "nodes", "cancelled").  Both monotone. *)
  type t = { checks : int; interrupts : (string * int) list }

  let zero = { checks = 0; interrupts = [] }
end

module Snap = struct
  (* BDD snapshot traffic (Bdd.export / Bdd.import): how many snapshots
     this manager produced and consumed, the total nodes and wire bytes
     shipped, and the wall-clock cost of each direction.  All monotone. *)
  type t = {
    exports : int;
    imports : int;
    nodes : int;
    bytes : int;
    export_time : float;
    import_time : float;
  }

  let zero =
    { exports = 0; imports = 0; nodes = 0; bytes = 0; export_time = 0.0;
      import_time = 0.0 }
end

type man_stats = {
  cache : Cache.t;
  gc : Gc.t;
  reorder : Reorder.t;
  arena : Arena.t;
  limits : Limit.t;
  snap : Snap.t;
}

type reach_sample = {
  step : int;
  frontier_nodes : int;
  reachable_nodes : int;
  step_time : float;
  simplify_saved : int;
}

type rel_profile = { rel_parts : int; rel_nodes : int; rel_largest : int }

type tr_profile = {
  tr_strategy : string;
  tr_masters : int;
  tr_instances : int;
  tr_shared_nodes_saved : int;
  tr_permute_time : float;
}

type worker_sample = { w_tasks : int; w_time : float }

(* ------------------------------------------------------------------ *)
(* Phase timers *)

module Timers = struct
  (* Insertion-ordered accumulating name -> seconds map.  Phase counts are
     tiny (single digits), so an assoc list beats a hashtable on clarity. *)
  type t = { mutable entries : (string * float) list }

  let create () = { entries = [] }

  let add t name dt =
    let rec go = function
      | [] -> [ (name, dt) ]
      | (n, v) :: rest when String.equal n name -> (n, v +. dt) :: rest
      | e :: rest -> e :: go rest
    in
    t.entries <- go t.entries

  let time t name f =
    let r, dt = Clock.wall f in
    add t name dt;
    r

  let find t name = List.assoc_opt name t.entries
  let to_list t = t.entries
  let total t = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t.entries
end

(* ------------------------------------------------------------------ *)
(* Tallies *)

module Tally = struct
  (* Insertion-ordered accumulating name -> count map, for labelled event
     counters whose label set is open-ended (fuzz skip reasons,
     discrepancy kinds).  Same shape and rationale as Timers. *)
  type t = { mutable entries : (string * int) list }

  let create () = { entries = [] }

  let incr ?(by = 1) t name =
    let rec go = function
      | [] -> [ (name, by) ]
      | (n, v) :: rest when String.equal n name -> (n, v + by) :: rest
      | e :: rest -> e :: go rest
    in
    t.entries <- go t.entries

  let get t name =
    match List.assoc_opt name t.entries with Some v -> v | None -> 0

  let to_list t = t.entries
  let total t = List.fold_left (fun acc (_, v) -> acc + v) 0 t.entries

  let to_json t =
    Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) t.entries)

  let of_json j =
    {
      entries =
        (match j with
        | Json.Obj members ->
            List.filter_map
              (fun (n, v) ->
                match v with Json.Int i -> Some (n, i) | _ -> None)
              members
        | _ -> []);
    }
end

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = {
  man : man_stats;
  phases : (string * float) list;
  reach : reach_sample list;
  relation : rel_profile option;
  tr : tr_profile option;
  verdicts : (string * int) list;
  workers : worker_sample list;
}

let snapshot ?(phases = []) ?(reach = []) ?relation ?tr ?(verdicts = [])
    ?(workers = []) man =
  { man; phases; reach; relation; tr; verdicts; workers }

(* [diff before after]: monotone counters are subtracted (clamped at zero so
   the result is always non-negative), gauges — live/dead/peak nodes, cache
   entries, capacity, the reach profile, the relation profile — are taken
   from [after]. *)
let diff before after =
  let sub a b = max 0 (a - b) in
  let subf a b = Float.max 0.0 (a -. b) in
  let op_diff (o : Cache.op) =
    let prev =
      List.find_opt (fun (p : Cache.op) -> String.equal p.name o.name)
        before.man.cache.Cache.ops
    in
    match prev with
    | None -> o
    | Some p ->
        { o with Cache.hits = sub o.hits p.hits; misses = sub o.misses p.misses }
  in
  let phase_diff (name, v) =
    match List.assoc_opt name before.phases with
    | None -> (name, v)
    | Some p -> (name, subf v p)
  in
  let tally_diff prev (name, v) =
    match List.assoc_opt name prev with
    | None -> (name, v)
    | Some p -> (name, sub v p)
  in
  {
    man =
      {
        cache =
          {
            Cache.entries = after.man.cache.Cache.entries;
            slots = after.man.cache.Cache.slots;
            evictions =
              sub after.man.cache.Cache.evictions
                before.man.cache.Cache.evictions;
            ops = List.map op_diff after.man.cache.Cache.ops;
          };
        gc =
          {
            Gc.runs = sub after.man.gc.Gc.runs before.man.gc.Gc.runs;
            freed = sub after.man.gc.Gc.freed before.man.gc.Gc.freed;
            time = subf after.man.gc.Gc.time before.man.gc.Gc.time;
          };
        reorder =
          {
            Reorder.runs =
              sub after.man.reorder.Reorder.runs before.man.reorder.Reorder.runs;
            time =
              subf after.man.reorder.Reorder.time
                before.man.reorder.Reorder.time;
          };
        arena = after.man.arena;
        limits =
          {
            Limit.checks =
              sub after.man.limits.Limit.checks before.man.limits.Limit.checks;
            interrupts =
              List.map
                (tally_diff before.man.limits.Limit.interrupts)
                after.man.limits.Limit.interrupts;
          };
        snap =
          {
            Snap.exports =
              sub after.man.snap.Snap.exports before.man.snap.Snap.exports;
            imports =
              sub after.man.snap.Snap.imports before.man.snap.Snap.imports;
            nodes = sub after.man.snap.Snap.nodes before.man.snap.Snap.nodes;
            bytes = sub after.man.snap.Snap.bytes before.man.snap.Snap.bytes;
            export_time =
              subf after.man.snap.Snap.export_time
                before.man.snap.Snap.export_time;
            import_time =
              subf after.man.snap.Snap.import_time
                before.man.snap.Snap.import_time;
          };
      };
    phases = List.map phase_diff after.phases;
    reach = after.reach;
    relation = after.relation;
    tr = after.tr;
    verdicts = List.map (tally_diff before.verdicts) after.verdicts;
    workers = after.workers;
  }

(* ------------------------------------------------------------------ *)
(* Merging per-worker snapshots of parallel runs *)

(* Sum an assoc tally in first-seen key order — associative because list
   concatenation is, and each key's total is a plain sum. *)
let merge_tallies add zero tallies =
  List.fold_left
    (fun acc entries ->
      List.fold_left
        (fun acc (name, v) ->
          let rec go = function
            | [] -> [ (name, add zero v) ]
            | (n, u) :: rest when String.equal n name -> (n, add u v) :: rest
            | e :: rest -> e :: go rest
          in
          go acc)
        acc entries)
    [] tallies

let merge snapshots =
  let mans = List.map (fun s -> s.man) snapshots in
  let ops =
    (* per-op tallies keyed by kernel name, merged pairwise *)
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc (o : Cache.op) ->
            let rec go = function
              | [] -> [ o ]
              | (p : Cache.op) :: rest when String.equal p.name o.name ->
                  { p with
                    Cache.hits = p.hits + o.hits;
                    misses = p.misses + o.misses }
                  :: rest
              | p :: rest -> p :: go rest
            in
            go acc)
          acc m.cache.Cache.ops)
      [] mans
  in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 mans in
  let sumf f = List.fold_left (fun acc m -> acc +. f m) 0.0 mans in
  let man =
    {
      cache =
        {
          Cache.entries = sum (fun m -> m.cache.Cache.entries);
          slots = sum (fun m -> m.cache.Cache.slots);
          evictions = sum (fun m -> m.cache.Cache.evictions);
          ops;
        };
      gc =
        {
          Gc.runs = sum (fun m -> m.gc.Gc.runs);
          freed = sum (fun m -> m.gc.Gc.freed);
          time = sumf (fun m -> m.gc.Gc.time);
        };
      reorder =
        {
          Reorder.runs = sum (fun m -> m.reorder.Reorder.runs);
          time = sumf (fun m -> m.reorder.Reorder.time);
        };
      arena =
        {
          Arena.live = sum (fun m -> m.arena.Arena.live);
          dead = sum (fun m -> m.arena.Arena.dead);
          (* vars is a per-manager ordering width, not an additive count *)
          vars =
            List.fold_left (fun acc m -> max acc m.arena.Arena.vars) 0 mans;
          peak_live = sum (fun m -> m.arena.Arena.peak_live);
          capacity = sum (fun m -> m.arena.Arena.capacity);
        };
      limits =
        {
          Limit.checks = sum (fun m -> m.limits.Limit.checks);
          interrupts =
            merge_tallies ( + ) 0
              (List.map (fun m -> m.limits.Limit.interrupts) mans);
        };
      snap =
        {
          Snap.exports = sum (fun m -> m.snap.Snap.exports);
          imports = sum (fun m -> m.snap.Snap.imports);
          nodes = sum (fun m -> m.snap.Snap.nodes);
          bytes = sum (fun m -> m.snap.Snap.bytes);
          export_time = sumf (fun m -> m.snap.Snap.export_time);
          import_time = sumf (fun m -> m.snap.Snap.import_time);
        };
    }
  in
  let first_non_empty f =
    List.fold_left
      (fun acc s -> match acc with [] -> f s | _ -> acc)
      [] snapshots
  in
  {
    man;
    phases =
      merge_tallies ( +. ) 0.0 (List.map (fun s -> s.phases) snapshots);
    reach = first_non_empty (fun s -> s.reach);
    relation = List.find_map (fun s -> s.relation) snapshots;
    tr = List.find_map (fun s -> s.tr) snapshots;
    verdicts = merge_tallies ( + ) 0 (List.map (fun s -> s.verdicts) snapshots);
    workers = List.concat_map (fun s -> s.workers) snapshots;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp fmt s =
  let a = s.man.arena in
  Format.fprintf fmt "bdd arena   : %d live (peak %d), %d dead, %d vars, capacity %d@."
    a.Arena.live a.Arena.peak_live a.Arena.dead a.Arena.vars a.Arena.capacity;
  let c = s.man.cache in
  Format.fprintf fmt
    "cache       : %d/%d entries (%.1f%% full), %d evictions, %.1f%% hit rate \
     (%d hits / %d misses)@."
    c.Cache.entries c.Cache.slots
    (100.0 *. Cache.occupancy c)
    c.Cache.evictions
    (100.0 *. Cache.hit_rate c)
    (Cache.hits c) (Cache.misses c);
  List.iter
    (fun (o : Cache.op) ->
      if Cache.lookups o > 0 then
        Format.fprintf fmt "  %-10s %9d hits %9d misses  (%.1f%%)@." o.Cache.name
          o.Cache.hits o.Cache.misses
          (100.0 *. Cache.op_hit_rate o))
    c.Cache.ops;
  Format.fprintf fmt "gc          : %d runs, %d nodes freed, %.3fs@."
    s.man.gc.Gc.runs s.man.gc.Gc.freed s.man.gc.Gc.time;
  Format.fprintf fmt "reorder     : %d runs, %.3fs@." s.man.reorder.Reorder.runs
    s.man.reorder.Reorder.time;
  let l = s.man.limits in
  if l.Limit.checks > 0 || l.Limit.interrupts <> [] then begin
    Format.fprintf fmt "limits      : %d checks" l.Limit.checks;
    List.iter
      (fun (name, n) -> Format.fprintf fmt ", %d %s interrupts" n name)
      l.Limit.interrupts;
    Format.fprintf fmt "@."
  end;
  let sn = s.man.snap in
  if sn.Snap.exports > 0 || sn.Snap.imports > 0 then
    Format.fprintf fmt
      "snapshot    : %d exports %.3fs, %d imports %.3fs, %d nodes, %d bytes@."
      sn.Snap.exports sn.Snap.export_time sn.Snap.imports sn.Snap.import_time
      sn.Snap.nodes sn.Snap.bytes;
  if s.verdicts <> [] then begin
    Format.fprintf fmt "verdicts    :";
    List.iter
      (fun (name, n) -> Format.fprintf fmt " %d %s" n name)
      s.verdicts;
    Format.fprintf fmt "@."
  end;
  if s.workers <> [] then begin
    Format.fprintf fmt "workers     : %d" (List.length s.workers);
    List.iteri
      (fun i w ->
        Format.fprintf fmt "%s w%d %d tasks %.3fs"
          (if i = 0 then " —" else ",")
          i w.w_tasks w.w_time)
      s.workers;
    Format.fprintf fmt "@."
  end;
  (match s.relation with
  | Some r ->
      Format.fprintf fmt "relation    : %d parts, %d nodes (largest %d)@."
        r.rel_parts r.rel_nodes r.rel_largest
  | None -> ());
  (match s.tr with
  | Some t when t.tr_strategy <> "" ->
      Format.fprintf fmt "tr          : %s" t.tr_strategy;
      if t.tr_masters > 0 then
        Format.fprintf fmt
          ", %d masters shared by %d permuted instances (%d nodes saved, \
           %.3fs permuting)"
          t.tr_masters t.tr_instances t.tr_shared_nodes_saved
          t.tr_permute_time;
      Format.fprintf fmt "@."
  | _ -> ());
  if s.phases <> [] then begin
    Format.fprintf fmt "phases      :@.";
    List.iter
      (fun (name, t) -> Format.fprintf fmt "  %-10s %8.3fs@." name t)
      s.phases
  end;
  match s.reach with
  | [] -> ()
  | samples ->
      let peak =
        List.fold_left (fun acc r -> max acc r.frontier_nodes) 0 samples
      in
      Format.fprintf fmt
        "reach       : %d frontiers, peak frontier %d nodes@." (List.length samples)
        peak;
      let saved =
        List.fold_left (fun acc r -> acc + r.simplify_saved) 0 samples
      in
      if saved <> 0 then
        Format.fprintf fmt
          "  frontier simplification saved %d image-input nodes@." saved;
      List.iter
        (fun r ->
          Format.fprintf fmt
            "  step %3d: frontier %7d nodes, reached %7d nodes, %.3fs%s@."
            r.step r.frontier_nodes r.reachable_nodes r.step_time
            (if r.simplify_saved <> 0 then
               Printf.sprintf " (restrict saved %d)" r.simplify_saved
             else ""))
        samples

(* /2 added the cache "slots" and "evictions" members; /3 added the
   "limits" object (budget checks and per-reason interrupt counts) and the
   top-level "verdicts" tally; /4 added the "workers" member (per-worker
   task counts and wall time of a merged parallel run) and the per-step
   "simplify_saved" member of the reach profile; /5 added the "snapshot"
   object (BDD export/import traffic of the shared-work parallel path);
   /6 added the "tr" object (transition-relation strategy and isomorphism
   sharing counters); /7 added the "intra" object (counters of the
   intra-operation parallel kernels); /8 drops it again, with the kernels.
   Every other bump was additive: older readers ignore the new members,
   and of_json defaults them to zero/empty when reading older documents
   and ignores an "intra" member. *)
let schema_version = "hsis-obs/8"

let to_json s =
  let open Json in
  let op (o : Cache.op) =
    Obj
      [ ("op", Str o.Cache.name); ("hits", Int o.Cache.hits);
        ("misses", Int o.Cache.misses) ]
  in
  let phase (name, t) = Obj [ ("phase", Str name); ("time_s", Float t) ] in
  let sample r =
    Obj
      [ ("step", Int r.step); ("frontier_nodes", Int r.frontier_nodes);
        ("reachable_nodes", Int r.reachable_nodes);
        ("time_s", Float r.step_time);
        ("simplify_saved", Int r.simplify_saved) ]
  in
  let worker w =
    Obj [ ("tasks", Int w.w_tasks); ("time_s", Float w.w_time) ]
  in
  Obj
    ([
       ("schema", Str schema_version);
       ( "cache",
         Obj
           [ ("entries", Int s.man.cache.Cache.entries);
             ("slots", Int s.man.cache.Cache.slots);
             ("evictions", Int s.man.cache.Cache.evictions);
             ("ops", List (List.map op s.man.cache.Cache.ops)) ] );
       ( "gc",
         Obj
           [ ("runs", Int s.man.gc.Gc.runs); ("freed", Int s.man.gc.Gc.freed);
             ("time_s", Float s.man.gc.Gc.time) ] );
       ( "reorder",
         Obj
           [ ("runs", Int s.man.reorder.Reorder.runs);
             ("time_s", Float s.man.reorder.Reorder.time) ] );
       ( "arena",
         Obj
           [ ("live", Int s.man.arena.Arena.live);
             ("dead", Int s.man.arena.Arena.dead);
             ("vars", Int s.man.arena.Arena.vars);
             ("peak_live", Int s.man.arena.Arena.peak_live);
             ("capacity", Int s.man.arena.Arena.capacity) ] );
       ( "limits",
         Obj
           [ ("checks", Int s.man.limits.Limit.checks);
             ( "interrupts",
               Obj
                 (List.map
                    (fun (n, v) -> (n, Int v))
                    s.man.limits.Limit.interrupts) ) ] );
       ( "snapshot",
         Obj
           [ ("exports", Int s.man.snap.Snap.exports);
             ("imports", Int s.man.snap.Snap.imports);
             ("nodes", Int s.man.snap.Snap.nodes);
             ("bytes", Int s.man.snap.Snap.bytes);
             ("export_s", Float s.man.snap.Snap.export_time);
             ("import_s", Float s.man.snap.Snap.import_time) ] );
       ( "verdicts",
         Obj (List.map (fun (n, v) -> (n, Int v)) s.verdicts) );
       ("phases", List (List.map phase s.phases));
       ("reach_profile", List (List.map sample s.reach));
     ]
    @ (match s.workers with
      | [] -> []
      | ws ->
          [
            ( "workers",
              Obj
                [
                  ("count", Int (List.length ws));
                  ( "total_time_s",
                    Float
                      (List.fold_left (fun acc w -> acc +. w.w_time) 0.0 ws)
                  );
                  ("workers", List (List.map worker ws));
                ] );
          ])
    @ (match s.relation with
      | None -> []
      | Some r ->
          [
            ( "relation",
              Obj
                [ ("parts", Int r.rel_parts); ("nodes", Int r.rel_nodes);
                  ("largest", Int r.rel_largest) ] );
          ])
    @
    match s.tr with
    | None -> []
    | Some t ->
        [
          ( "tr",
            Obj
              [ ("strategy", Str t.tr_strategy);
                ("masters", Int t.tr_masters);
                ("instances", Int t.tr_instances);
                ("shared_nodes_saved", Int t.tr_shared_nodes_saved);
                ("permute_s", Float t.tr_permute_time) ] );
        ])

let of_json j =
  let open Json in
  let op jo =
    {
      Cache.name = to_str (member "op" jo);
      hits = to_int (member "hits" jo);
      misses = to_int (member "misses" jo);
    }
  in
  let cache =
    let jc = Option.value ~default:(Obj []) (member "cache" j) in
    {
      Cache.entries = to_int (member "entries" jc);
      slots = to_int (member "slots" jc);
      evictions = to_int (member "evictions" jc);
      ops = List.map op (to_list (member "ops" jc));
    }
  in
  let gc =
    let jg = Option.value ~default:(Obj []) (member "gc" j) in
    {
      Gc.runs = to_int (member "runs" jg);
      freed = to_int (member "freed" jg);
      time = to_float (member "time_s" jg);
    }
  in
  let reorder =
    let jr = Option.value ~default:(Obj []) (member "reorder" j) in
    {
      Reorder.runs = to_int (member "runs" jr);
      time = to_float (member "time_s" jr);
    }
  in
  let arena =
    let ja = Option.value ~default:(Obj []) (member "arena" j) in
    {
      Arena.live = to_int (member "live" ja);
      dead = to_int (member "dead" ja);
      vars = to_int (member "vars" ja);
      peak_live = to_int (member "peak_live" ja);
      capacity = to_int (member "capacity" ja);
    }
  in
  let int_tally = function
    | Some (Obj members) ->
        List.filter_map
          (fun (n, v) -> match v with Int i -> Some (n, i) | _ -> None)
          members
    | _ -> []
  in
  (* Absent on /1 and /2 documents; default to zero activity. *)
  let limits =
    let jl = Option.value ~default:(Obj []) (member "limits" j) in
    {
      Limit.checks = to_int (member "checks" jl);
      interrupts = int_tally (member "interrupts" jl);
    }
  in
  (* Absent on /1–/4 documents; default to zero traffic. *)
  let snap =
    let js = Option.value ~default:(Obj []) (member "snapshot" j) in
    {
      Snap.exports = to_int (member "exports" js);
      imports = to_int (member "imports" js);
      nodes = to_int (member "nodes" js);
      bytes = to_int (member "bytes" js);
      export_time = to_float (member "export_s" js);
      import_time = to_float (member "import_s" js);
    }
  in
  let verdicts = int_tally (member "verdicts" j) in
  let phases =
    List.map
      (fun jp -> (to_str (member "phase" jp), to_float (member "time_s" jp)))
      (to_list (member "phases" j))
  in
  let reach =
    List.map
      (fun jr ->
        {
          step = to_int (member "step" jr);
          frontier_nodes = to_int (member "frontier_nodes" jr);
          reachable_nodes = to_int (member "reachable_nodes" jr);
          step_time = to_float (member "time_s" jr);
          simplify_saved = to_int (member "simplify_saved" jr);
        })
      (to_list (member "reach_profile" j))
  in
  (* Absent on /1–/3 documents: a single-manager snapshot has no workers. *)
  let workers =
    match member "workers" j with
    | None -> []
    | Some jw ->
        List.map
          (fun w ->
            {
              w_tasks = to_int (member "tasks" w);
              w_time = to_float (member "time_s" w);
            })
          (to_list (member "workers" jw))
  in
  let relation =
    match member "relation" j with
    | None -> None
    | Some jr ->
        Some
          {
            rel_parts = to_int (member "parts" jr);
            rel_nodes = to_int (member "nodes" jr);
            rel_largest = to_int (member "largest" jr);
          }
  in
  (* Absent on /1–/5 documents. *)
  let tr =
    match member "tr" j with
    | None -> None
    | Some jt ->
        Some
          {
            tr_strategy = to_str (member "strategy" jt);
            tr_masters = to_int (member "masters" jt);
            tr_instances = to_int (member "instances" jt);
            tr_shared_nodes_saved = to_int (member "shared_nodes_saved" jt);
            tr_permute_time = to_float (member "permute_s" jt);
          }
  in
  { man = { cache; gc; reorder; arena; limits; snap }; phases; reach;
    relation; tr; verdicts; workers }

let json_string s = Json.to_string (to_json s)
