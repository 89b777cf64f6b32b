type params = {
  k : int;
  oversub : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

let default_params ?(k = 4) ?(oversub = 4) () =
  {
    k;
    oversub;
    host_spec = Topology.default_link_spec;
    fabric_spec = Topology.default_link_spec;
  }

let validate p =
  if p.k < 4 || p.k mod 2 <> 0 then
    invalid_arg "Multihomed: k must be even and >= 4";
  if p.oversub < 1 then invalid_arg "Multihomed: oversub must be >= 1"

let hosts_per_edge p = p.k / 2 * p.oversub
let hosts_per_pod p = p.k / 2 * hosts_per_edge p
let host_count p = p.k * hosts_per_pod p

let position p addr =
  let h = Addr.to_int addr in
  let hpe = hosts_per_edge p and hpp = hosts_per_pod p in
  let pod = h / hpp in
  let rem = h mod hpp in
  (pod, rem / hpe, rem mod hpe)

let paths_between p a b =
  let pa, ea, _ = position p a and pb, eb, _ = position p b in
  let half = p.k / 2 in
  if Addr.equal a b then 0
  else if pa = pb && (ea = eb || (ea + 1) mod half = eb || (eb + 1) mod half = ea)
  then 2 * half (* some shared edge: direct + via fabric *)
  else if pa = pb then 2 * half
  else 2 * half * half

let create ~sched p =
  validate p;
  let n_hosts = host_count p in
  let open Topology in
  let b = Builder.create sched in
  let half = p.k / 2 in
  let pods = p.k in
  let hosts =
    Array.init n_hosts (fun i -> Host.create ~sched ~addr:(Addr.of_int i))
  in
  let next_sw = ref 0 in
  let fresh_switch layer =
    let sw = Switch.create ~id:!next_sw ~layer in
    incr next_sw;
    sw
  in
  let edge = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch Layer.Edge_layer)) in
  let agg = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch Layer.Agg_layer)) in
  let core = Array.init (half * half) (fun _ -> fresh_switch Layer.Core_layer) in

  (* Host links: each host connects to its home edge [e] and to
     [(e+1) mod half]. Downlink tables are per edge switch, keyed by
     host id. *)
  let edge_host_down = Array.init pods (fun _ -> Array.init half (fun _ -> Hashtbl.create 32)) in
  for h = 0 to n_hosts - 1 do
    let pd, e, _ = position p (Addr.of_int h) in
    let attach_to e' =
      let up = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Host_layer in
      Builder.to_switch up edge.(pd).(e');
      Host.add_nic hosts.(h) up;
      let down = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Edge_layer in
      Builder.to_host down hosts.(h);
      Hashtbl.replace edge_host_down.(pd).(e') h down
    in
    attach_to e;
    attach_to ((e + 1) mod half)
  done;

  let edge_up =
    Array.init pods (fun pd ->
        Array.init half (fun _e ->
            Array.init half (fun a ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Edge_layer in
                Builder.to_switch l agg.(pd).(a);
                l)))
  in
  let agg_down =
    Array.init pods (fun pd ->
        Array.init half (fun _a ->
            Array.init half (fun e ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l edge.(pd).(e);
                l)))
  in
  let agg_up =
    Array.init pods (fun _pd ->
        Array.init half (fun a ->
            Array.init half (fun m ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l core.((a * half) + m);
                l)))
  in
  let core_down =
    Array.init (half * half) (fun c ->
        Array.init pods (fun pd ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Core_layer in
            Builder.to_switch l agg.(pd).(c / half);
            l))
  in

  (* Destination pod and edge are computed inline, and the down-link
     table is probed with [Hashtbl.find]: a [position] tuple or a
     [find_opt] option per hop would allocate on every forwarded
     packet. *)
  let hpp = hosts_per_pod p and hpe = hosts_per_edge p in
  for pd = 0 to pods - 1 do
    for e = 0 to half - 1 do
      let sw = edge.(pd).(e) in
      let salt = Switch.id sw in
      let down_tbl = edge_host_down.(pd).(e) in
      Switch.set_route sw (fun pkt ->
          let d = Addr.to_int pkt.Packet.dst in
          match Hashtbl.find down_tbl d with
          | l -> l
          | exception Not_found -> edge_up.(pd).(e).(Ecmp.select pkt ~salt ~n:half))
    done;
    for a = 0 to half - 1 do
      let sw = agg.(pd).(a) in
      let salt = Switch.id sw in
      Switch.set_route sw (fun pkt ->
          let h = Addr.to_int pkt.Packet.dst in
          if h / hpp = pd then begin
            let de = h mod hpp / hpe in
            (* Two candidate edges serve the destination host. *)
            let e1 = de and e2 = (de + 1) mod half in
            let e = if Ecmp.select pkt ~salt:(salt + 7919) ~n:2 = 0 then e1 else e2 in
            agg_down.(pd).(a).(e)
          end
          else agg_up.(pd).(a).(Ecmp.select pkt ~salt ~n:half))
    done
  done;
  Array.iteri
    (fun c sw ->
      Switch.set_route sw (fun pkt ->
          core_down.(c).(Addr.to_int pkt.Packet.dst / hpp)))
    core;

  let switches =
    Array.concat
      [ Array.concat (Array.to_list edge); Array.concat (Array.to_list agg); core ]
  in
  {
    sched;
    name = Printf.sprintf "multihomed-k%d-oversub%d" p.k p.oversub;
    hosts;
    switches;
    links = Builder.links b;
    path_count = (fun a bb -> paths_between p a bb);
    routes = None;
  }
