open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Joined = Rapida_ntga.Joined
module Triplegroup = Rapida_ntga.Triplegroup

type ctp = {
  prop : Term.t;
  obj_var : Ast.var;
  obj_const : Term.t option;
  owners : int list;
}

type star = {
  cs_id : int;
  subject_var : Ast.var;
  ctps : ctp list;
}

type alpha = (int * Ops.prop_req) list

type pattern_info = {
  pat_id : int;
  star_of : (int * int) list;
  alpha : alpha;
  var_map : (Ast.var * Ast.var) list;
}

type t = {
  stars : star list;
  edges : Star.edge list;
  patterns : pattern_info list;
}

let req_of ctp = { Ops.prop = ctp.prop; obj = ctp.obj_const }

(* --- Construction ------------------------------------------------------ *)

type builder_ctp = {
  mutable b_owners : int list;
  b_prop : Term.t;
  b_obj_var : Ast.var;
  b_obj_const : Term.t option;
}

type builder_star = {
  b_id : int;
  b_subject : Ast.var;
  mutable b_ctps : builder_ctp list;
}

exception Build_error of string

let subject_var_of (s : Star.t) =
  match s.subject with
  | Ast.Nvar v -> v
  | Ast.Nterm t ->
    raise (Build_error (Fmt.str "star rooted at constant %a" Term.pp t))

let bound_prop (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nterm p -> p
  | Ast.Nvar v -> raise (Build_error (Printf.sprintf "unbound property ?%s" v))

(* Fresh-variable supply avoiding every name already used by any pattern
   or by the composite so far. *)
let make_fresh used =
  let counter = ref 0 in
  fun base ->
    let rec go candidate =
      if Hashtbl.mem used candidate then begin
        incr counter;
        go (Printf.sprintf "%s_c%d" base !counter)
      end
      else begin
        Hashtbl.add used candidate ();
        candidate
      end
    in
    go base

let init_star fresh pat_id (s : Star.t) =
  let b_ctps =
    List.map
      (fun (tp : Ast.triple_pattern) ->
        let prop = bound_prop tp in
        match tp.tp_o with
        | Ast.Nvar v ->
          { b_owners = [ pat_id ]; b_prop = prop; b_obj_var = v;
            b_obj_const = None }
        | Ast.Nterm c ->
          { b_owners = [ pat_id ]; b_prop = prop;
            b_obj_var = fresh ("w_" ^ string_of_int s.id);
            b_obj_const = Some c })
      s.patterns
  in
  { b_id = s.id; b_subject = subject_var_of s; b_ctps = b_ctps }

(* Fold one star of a later pattern into its matched composite star:
   claim compatible composite triples (same property, same object
   constraint shape) positionally, adding new secondary triples for the
   rest. Returns the variable mapping contributed. *)
let fold_star fresh pat_id (bstar : builder_star) (s : Star.t) =
  let claimed = Hashtbl.create 8 in
  let var_map = ref [ (subject_var_of s, bstar.b_subject) ] in
  List.iter
    (fun (tp : Ast.triple_pattern) ->
      let prop = bound_prop tp in
      let compatible c =
        Term.equal c.b_prop prop
        &&
        match tp.tp_o, c.b_obj_const with
        | Ast.Nterm o, Some k -> Term.equal o k
        | Ast.Nvar _, None -> true
        | Ast.Nterm _, None | Ast.Nvar _, Some _ -> false
      in
      let available =
        List.find_opt
          (fun c -> (not (Hashtbl.mem claimed c.b_obj_var)) && compatible c)
          bstar.b_ctps
      in
      match available with
      | Some c ->
        Hashtbl.add claimed c.b_obj_var ();
        c.b_owners <- pat_id :: c.b_owners;
        (match tp.tp_o with
        | Ast.Nvar v -> var_map := (v, c.b_obj_var) :: !var_map
        | Ast.Nterm _ -> ())
      | None ->
        let ctp =
          match tp.tp_o with
          | Ast.Nvar v ->
            let name = fresh v in
            var_map := (v, name) :: !var_map;
            { b_owners = [ pat_id ]; b_prop = prop; b_obj_var = name;
              b_obj_const = None }
          | Ast.Nterm o ->
            { b_owners = [ pat_id ]; b_prop = prop;
              b_obj_var = fresh ("w_" ^ string_of_int bstar.b_id);
              b_obj_const = Some o }
        in
        Hashtbl.add claimed ctp.b_obj_var ();
        bstar.b_ctps <- bstar.b_ctps @ [ ctp ])
    s.patterns;
  List.rev !var_map

let all_pattern_ids subqueries =
  List.map (fun (sq : Analytical.subquery) -> sq.sq_id) subqueries

let build subqueries =
  match subqueries with
  | [] -> Error "no subqueries"
  | (base : Analytical.subquery) :: rest -> (
    (* Every later pattern must overlap the first. *)
    let bad =
      List.filter_map
        (fun sq ->
          let report = Overlap.check base sq in
          if Overlap.overlaps report then None else Some (sq, report))
        rest
    in
    match bad with
    | (sq, report) :: _ ->
      Error
        (Fmt.str "patterns %d and %d do not overlap: %a" base.sq_id
           sq.Analytical.sq_id Overlap.pp_report report)
    | [] -> (
      try
        let used = Hashtbl.create 64 in
        List.iter
          (fun (sq : Analytical.subquery) ->
            List.iter
              (fun tp ->
                List.iter
                  (fun v -> Hashtbl.replace used v ())
                  (Ast.pattern_vars tp))
              sq.bgp)
          subqueries;
        let fresh = make_fresh used in
        let bstars = List.map (init_star fresh base.sq_id) base.stars in
        let base_info =
          {
            pat_id = base.sq_id;
            star_of = List.map (fun (s : Star.t) -> (s.id, s.id)) base.stars;
            alpha = [];
            var_map = [];
          }
        in
        let infos =
          List.map
            (fun (sq : Analytical.subquery) ->
              let report = Overlap.check base sq in
              let star_of =
                List.map (fun (b, o) -> (o, b)) report.Overlap.pairs
              in
              let var_map =
                List.concat_map
                  (fun (orig_id, cs_id) ->
                    let bstar = List.nth bstars cs_id in
                    let orig_star =
                      List.find
                        (fun (s : Star.t) -> s.id = orig_id)
                        sq.stars
                    in
                    fold_star fresh sq.sq_id bstar orig_star)
                  star_of
              in
              (sq.sq_id, star_of, var_map))
            rest
        in
        let all_ids = all_pattern_ids subqueries in
        let stars =
          List.map
            (fun b ->
              {
                cs_id = b.b_id;
                subject_var = b.b_subject;
                ctps =
                  List.map
                    (fun c ->
                      {
                        prop = c.b_prop;
                        obj_var = c.b_obj_var;
                        obj_const = c.b_obj_const;
                        owners = List.sort_uniq Int.compare c.b_owners;
                      })
                    b.b_ctps;
              })
            bstars
        in
        let alpha_of pat_id =
          List.concat_map
            (fun star ->
              List.filter_map
                (fun c ->
                  let prim =
                    List.for_all (fun id -> List.mem id c.owners) all_ids
                  in
                  if List.mem pat_id c.owners && not prim then
                    Some (star.cs_id, req_of c)
                  else None)
                star.ctps)
            stars
        in
        let patterns =
          { base_info with alpha = alpha_of base.sq_id }
          :: List.map
               (fun (pat_id, star_of, var_map) ->
                 { pat_id; star_of; alpha = alpha_of pat_id; var_map })
               infos
        in
        Ok { stars; edges = base.edges; patterns }
      with Build_error msg -> Error msg))

(* --- Accessors --------------------------------------------------------- *)

let all_pattern_ids_of t = List.map (fun p -> p.pat_id) t.patterns

let prim_reqs t star =
  let ids = all_pattern_ids_of t in
  List.filter_map
    (fun c ->
      if List.for_all (fun id -> List.mem id c.owners) ids then
        Some (req_of c)
      else None)
    star.ctps

let sec_reqs t star =
  let ids = all_pattern_ids_of t in
  List.filter_map
    (fun c ->
      if List.for_all (fun id -> List.mem id c.owners) ids then None
      else Some (req_of c))
    star.ctps

let alpha_holds alpha (joined : Joined.t) =
  List.for_all
    (fun (cs_id, r) ->
      match Joined.part joined cs_id with
      | Some tg -> Ops.satisfies tg r
      | None -> false)
    alpha

let map_var info v =
  match List.assoc_opt v info.var_map with Some v' -> v' | None -> v

let rec map_expr info (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Evar v -> Ast.Evar (map_var info v)
  | Ast.Eterm _ -> e
  | Ast.Ebin (op, a, b) -> Ast.Ebin (op, map_expr info a, map_expr info b)
  | Ast.Enot a -> Ast.Enot (map_expr info a)
  | Ast.Eagg (f, arg, d) -> Ast.Eagg (f, Option.map (map_expr info) arg, d)
  | Ast.Eregex (a, p, fl) -> Ast.Eregex (map_expr info a, p, fl)

let pattern_columns t info =
  let cols = ref [] in
  let add v = if not (List.mem v !cols) then cols := v :: !cols in
  List.iter
    (fun star ->
      if List.exists (fun (_, cs) -> cs = star.cs_id) info.star_of then begin
        add star.subject_var;
        List.iter
          (fun c -> if List.mem info.pat_id c.owners then add c.obj_var)
          star.ctps
      end)
    t.stars;
  List.rev !cols

let heuristic_order_edges ~star_ids ~edges =
  match edges with
  | [] ->
    if List.length star_ids <= 1 then Ok []
    else Error "disconnected graph pattern (no join edges)"
  | first :: _ ->
    let joined = Hashtbl.create 8 in
    Hashtbl.add joined first.Star.left.star ();
    let remaining = ref edges in
    let plan = ref [] in
    let progress = ref true in
    while !remaining <> [] && !progress do
      progress := false;
      let next, rest =
        List.partition
          (fun (e : Star.edge) ->
            Hashtbl.mem joined e.left.star || Hashtbl.mem joined e.right.star)
          !remaining
      in
      match next with
      | [] -> ()
      | e :: others ->
        Hashtbl.replace joined e.Star.left.star ();
        Hashtbl.replace joined e.Star.right.star ();
        plan := e :: !plan;
        remaining := others @ rest;
        progress := true
    done;
    if !remaining <> [] then Error "disconnected graph pattern"
    else if Hashtbl.length joined <> List.length star_ids then
      Error "some stars participate in no join"
    else Ok (List.rev !plan)

(* Realize an explicit star visiting order as an edge plan: each next
   star must connect to the joined prefix through some edge. Any
   mismatch (not a permutation, unrealizable order, leftover edges)
   yields [None] so the caller falls back to the heuristic — a bad hint
   can never abort a query. *)
let guided_order_edges ~star_ids ~edges ~order =
  if List.sort compare order <> List.sort compare star_ids then None
  else
    match order with
    | [] | [ _ ] -> if edges = [] then Some [] else None
    | first :: rest ->
      let joined = Hashtbl.create 8 in
      Hashtbl.add joined first ();
      let remaining = ref edges in
      let plan = ref [] in
      let ok = ref true in
      List.iter
        (fun s ->
          if !ok then begin
            let rec pick acc = function
              | [] -> None
              | (e : Star.edge) :: tl ->
                if
                  (e.left.star = s && Hashtbl.mem joined e.right.star)
                  || (e.right.star = s && Hashtbl.mem joined e.left.star)
                then Some (e, List.rev_append acc tl)
                else pick (e :: acc) tl
            in
            match pick [] !remaining with
            | None -> ok := false
            | Some (e, rest') ->
              Hashtbl.replace joined s ();
              plan := e :: !plan;
              (* Edges now internal to the joined prefix ride along
                 immediately, mirroring the heuristic's behavior of
                 consuming every touching edge before growing further. *)
              let inner, outer =
                List.partition
                  (fun (e : Star.edge) ->
                    Hashtbl.mem joined e.left.star
                    && Hashtbl.mem joined e.right.star)
                  rest'
              in
              plan := List.rev_append inner !plan;
              remaining := outer
          end)
        rest;
      if !ok && !remaining = [] then Some (List.rev !plan) else None

let order_edges ~star_order ~star_ids ~edges =
  match star_order with
  | None -> heuristic_order_edges ~star_ids ~edges
  | Some order -> (
    match guided_order_edges ~star_ids ~edges ~order with
    | Some plan -> Ok plan
    | None -> heuristic_order_edges ~star_ids ~edges)

let join_plan ?star_order t =
  order_edges ~star_order
    ~star_ids:(List.map (fun s -> s.cs_id) t.stars)
    ~edges:t.edges

let left_deep plan ~first ~next =
  match plan with
  | Error msg -> failwith msg
  | Ok [] -> failwith "join plan without edges"
  | Ok ((e0 : Star.edge) :: rest) ->
    let seen = Hashtbl.create 8 in
    Hashtbl.replace seen e0.left.star ();
    Hashtbl.replace seen e0.right.star ();
    let joined s = Hashtbl.mem seen s in
    let acc, _ =
      List.fold_left
        (fun (acc, i) (e : Star.edge) ->
          (* Both endpoints already joined: the earlier joins on the
             shared variables enforce this edge, so it runs no join. *)
          if joined e.left.star && joined e.right.star then (acc, i)
          else
            let bound, fresh =
              if joined e.left.star then (e.left, e.right)
              else (e.right, e.left)
            in
            Hashtbl.replace seen fresh.star ();
            (next i acc ~bound ~fresh ~joined, i + 1))
        (first e0, 1) rest
    in
    acc

let pp_ctp ids ppf c =
  let secondary = not (List.for_all (fun id -> List.mem id c.owners) ids) in
  Fmt.pf ppf "%a%s%a%s" Term.pp c.prop
    (if secondary then "?" else "")
    (Fmt.option (fun ppf o -> Fmt.pf ppf "=%a" Term.pp o))
    c.obj_const
    (if secondary then
       Printf.sprintf "[%s]"
         (String.concat "," (List.map string_of_int c.owners))
     else "")

let pp ppf t =
  let ids = all_pattern_ids_of t in
  Fmt.pf ppf "@[<v>%a@ edges: %a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf s ->
         Fmt.pf ppf "Stp'%d(?%s): {%a}" s.cs_id s.subject_var
           (Fmt.list ~sep:Fmt.sp (pp_ctp ids))
           s.ctps))
    t.stars
    (Fmt.list ~sep:Fmt.semi Star.pp_edge)
    t.edges
